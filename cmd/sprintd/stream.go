package main

import "sync"

// streamLog is an append-only line buffer that supports replay-then-follow
// subscribers: the decision sinks write JSONL records into it from the
// simulation goroutines, and HTTP handlers stream the lines out as they
// arrive. Each Write call is one complete line (the JSON encoder emits one
// record per Write), so lines never interleave.
//
// The buffer is bounded: beyond max lines the oldest are dropped (the
// writer — the simulation — must never block or grow without bound because
// a stream has no reader, or a slow one). Readers that fall behind the
// drop horizon skip forward and can ask Dropped for how many lines they
// can no longer replay.
type streamLog struct {
	mu      sync.Mutex
	lines   [][]byte
	first   int // global index of lines[0]
	dropped int64
	max     int // 0 = unbounded
	closed  bool
	// wake is made by next for its followers and closed (then dropped) on
	// the next append or the close; with no follower it stays nil.
	wake chan struct{}
}

// newStreamLog returns a log retaining at most max lines (0 = unbounded).
func newStreamLog(max int) *streamLog {
	return &streamLog{max: max}
}

// Write implements io.Writer for telemetry.NewDecisionSink.
func (s *streamLog) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	s.mu.Lock()
	s.lines = append(s.lines, b)
	// Drop in chunks (hysteresis max/4) so a saturated stream pays the
	// copy once per chunk, not per line.
	if s.max > 0 && len(s.lines) > s.max+s.max/4 {
		k := len(s.lines) - s.max
		s.first += k
		s.dropped += int64(k)
		s.lines = append([][]byte(nil), s.lines[k:]...)
	}
	s.wakeFollowers()
	s.mu.Unlock()
	return len(p), nil
}

// Close marks the log complete; followers drain and return. Idempotent.
func (s *streamLog) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.wakeFollowers()
	}
	s.mu.Unlock()
}

// wakeFollowers wakes every follower waiting on the channel next handed
// out. Callers hold mu.
func (s *streamLog) wakeFollowers() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// Dropped returns how many lines the retention bound has discarded.
func (s *streamLog) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// next returns the lines from global index idx on (skipping forward past
// any dropped prefix), the new index, whether the log is complete, and a
// channel that closes when more data (or the close) arrives after this
// snapshot.
func (s *streamLog) next(idx int) ([][]byte, int, bool, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < s.first {
		idx = s.first
	}
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return s.lines[idx-s.first:], s.first + len(s.lines), s.closed, s.wake
}

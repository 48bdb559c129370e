package main

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func writeLine(st *streamLog, i int) {
	_, _ = st.Write([]byte(fmt.Sprintf("line %d\n", i)))
}

// TestStreamLogReplayThenFollow: the single-threaded contract — replay
// everything recorded so far, then deltas, then the close.
func TestStreamLogReplayThenFollow(t *testing.T) {
	st := newStreamLog(0)
	for i := 0; i < 3; i++ {
		writeLine(st, i)
	}
	lines, idx, closed, _ := st.next(0)
	if len(lines) != 3 || idx != 3 || closed {
		t.Fatalf("replay: %d lines idx %d closed %v, want 3/3/false", len(lines), idx, closed)
	}
	writeLine(st, 3)
	lines, idx, _, _ = st.next(idx)
	if len(lines) != 1 || string(lines[0]) != "line 3\n" {
		t.Fatalf("delta = %q", lines)
	}
	st.Close()
	st.Close() // idempotent
	if _, _, closed, _ = st.next(idx); !closed {
		t.Fatal("not closed after Close")
	}
	if st.Dropped() != 0 {
		t.Fatalf("unbounded log dropped %d", st.Dropped())
	}
}

// TestStreamLogBounded: beyond the retention bound the oldest lines drop,
// a lagging reader skips forward past the horizon, and the drop count is
// exact.
func TestStreamLogBounded(t *testing.T) {
	const max, total = 10, 100
	st := newStreamLog(max)
	for i := 0; i < total; i++ {
		writeLine(st, i)
	}
	lines, idx, _, _ := st.next(0)
	if idx != total {
		t.Fatalf("idx = %d, want %d (global indices keep counting)", idx, total)
	}
	// Hysteresis keeps at most max+max/4 lines between compactions.
	if len(lines) > max+max/4 || len(lines) < max {
		t.Fatalf("retained %d lines, want within [%d, %d]", len(lines), max, max+max/4)
	}
	if got := st.Dropped(); got != int64(total-len(lines)) {
		t.Fatalf("Dropped = %d, want %d", got, total-len(lines))
	}
	// The retained suffix is contiguous and ends at the newest line.
	for i, l := range lines {
		if want := fmt.Sprintf("line %d\n", total-len(lines)+i); string(l) != want {
			t.Fatalf("retained[%d] = %q, want %q", i, l, want)
		}
	}
	// A reader behind the horizon resumes at the oldest retained line.
	lines, _, _, _ = st.next(5)
	if string(lines[0]) != fmt.Sprintf("line %d\n", total-len(lines)) {
		t.Fatalf("lagging reader resumed at %q", lines[0])
	}
}

// TestStreamLogConcurrent is the -race workout: one writer racing several
// follow readers, a late reader joining after Close, and reads racing the
// Close itself. Every reader must terminate and observe only genuine
// lines.
func TestStreamLogConcurrent(t *testing.T) {
	const total, readers = 500, 4
	st := newStreamLog(64)
	var wg sync.WaitGroup
	counts := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			idx := 0
			for {
				lines, n, closed, wake := st.next(idx)
				idx = n
				for _, l := range lines {
					var i int
					if _, err := fmt.Sscanf(string(l), "line %d", &i); err != nil {
						t.Errorf("reader %d: torn line %q", r, l)
						return
					}
					counts[r]++
				}
				if closed {
					return
				}
				<-wake
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			writeLine(st, i)
			_ = st.Dropped() // reads racing writes
		}
		st.Close()
	}()
	wg.Wait()
	for r, n := range counts {
		if n == 0 || n > total {
			t.Errorf("reader %d saw %d lines, want within (0, %d]", r, n, total)
		}
	}
	// A reader that joins after Close drains the retained tail and exits.
	lines, _, closed, _ := st.next(0)
	if !closed || len(lines) == 0 {
		t.Fatalf("late reader: %d lines closed=%v", len(lines), closed)
	}
}

// TestStreamLogWakesFollower: appends with no follower make no wake
// channel, a handed-out channel closes on the next append, and a follower
// that waits between every append wakes for each one and for the close —
// the writer waits for each line to be seen, so a lost wakeup hangs the
// follower and fails the test instead of being absorbed by a later append.
func TestStreamLogWakesFollower(t *testing.T) {
	st := newStreamLog(0)
	writeLine(st, 0)
	if st.wake != nil {
		t.Fatal("append made a wake channel with no follower holding one")
	}
	_, idx, _, wake := st.next(0)
	writeLine(st, 1)
	select {
	case <-wake:
	default:
		t.Fatal("append did not close the handed-out wake channel")
	}
	_, idx, _, _ = st.next(idx)

	const total = 200
	seen := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			lines, n, closed, wake := st.next(idx)
			if len(lines) > 0 {
				idx = n
				seen <- n
			}
			if closed {
				return
			}
			<-wake
		}
	}()
	timeout := time.After(10 * time.Second)
	for i := 2; i < total; i++ {
		writeLine(st, i)
		select {
		case n := <-seen:
			if n != i+1 {
				t.Fatalf("follower at %d after line %d", n, i)
			}
		case <-timeout:
			t.Fatalf("follower never woke for line %d", i)
		}
	}
	st.Close()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("follower never woke for Close")
	}
}

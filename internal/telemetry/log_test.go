package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Dropped returns how many records the retention bound has discarded.
func (l *DecisionLog) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.first)
}

// lineRecord is record i of the stream tests: its t and its frequency
// vector both carry i, so a torn record renders inconsistently.
func lineRecord(i int) *Decision {
	return &Decision{T: float64(i), Policy: fmt.Sprintf("line %d", i),
		MPC: &MPCDecision{FreqsGHz: []F{F(i), F(i)}}}
}

func keepLine(t testing.TB, l *DecisionLog, i int) {
	t.Helper()
	if err := l.keep(lineRecord(i)); err != nil {
		t.Fatal(err)
	}
}

// render is AppendDecision's line for d; lineOf renders kept record i of
// recs and wantLine is the encoder's bytes for record i of the stream.
func render(t testing.TB, d *Decision) string {
	t.Helper()
	b, err := AppendDecision(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func lineOf(t testing.TB, recs DecisionBatch, i int) string {
	d := recs.Decision(i)
	return render(t, &d)
}

func wantLine(t testing.TB, i int) string { return render(t, lineRecord(i)) }

// TestDecisionLogReplayThenFollow: the single-threaded contract — replay
// everything recorded so far, then deltas, then the close.
func TestDecisionLogReplayThenFollow(t *testing.T) {
	l := NewDecisionLog(0)
	for i := 0; i < 3; i++ {
		keepLine(t, l, i)
	}
	recs, idx, closed, _ := l.Next(0)
	if len(recs) != 3 || idx != 3 || closed {
		t.Fatalf("replay: %d records idx %d closed %v, want 3/3/false", len(recs), idx, closed)
	}
	keepLine(t, l, 3)
	recs, idx, _, _ = l.Next(idx)
	if len(recs) != 1 || lineOf(t, recs, 0) != wantLine(t, 3) {
		t.Fatalf("delta = %+v", recs)
	}
	l.Close()
	l.Close() // idempotent
	if _, _, closed, _ = l.Next(idx); !closed {
		t.Fatal("not closed after Close")
	}
	if l.Dropped() != 0 {
		t.Fatalf("unbounded log dropped %d", l.Dropped())
	}
}

// TestDecisionLogBounded: beyond the retention bound the oldest records
// drop, a lagging reader skips forward past the horizon, and the drop
// count is exact.
func TestDecisionLogBounded(t *testing.T) {
	const max, total = 10, 100
	l := NewDecisionLog(max)
	for i := 0; i < total; i++ {
		keepLine(t, l, i)
	}
	recs, idx, _, _ := l.Next(0)
	if idx != total {
		t.Fatalf("idx = %d, want %d (global indices keep counting)", idx, total)
	}
	// Hysteresis keeps at most max+max/4 records between compactions.
	if len(recs) > max+max/4 || len(recs) < max {
		t.Fatalf("retained %d records, want within [%d, %d]", len(recs), max, max+max/4)
	}
	if got := l.Dropped(); got != int64(total-len(recs)) {
		t.Fatalf("Dropped = %d, want %d", got, total-len(recs))
	}
	// The retained suffix is contiguous and ends at the newest record.
	for i := range recs {
		if got, want := lineOf(t, recs, i), wantLine(t, total-len(recs)+i); got != want {
			t.Fatalf("retained[%d] = %q, want %q", i, got, want)
		}
	}
	// A reader behind the horizon resumes at the oldest retained record.
	recs, _, _, _ = l.Next(5)
	if lineOf(t, recs, 0) != wantLine(t, total-len(recs)) {
		t.Fatalf("lagging reader resumed at %q", lineOf(t, recs, 0))
	}
}

// TestDecisionLogConcurrent is the -race workout: one writer racing
// several follow readers that render outside the lock, a late reader
// joining after Close, and reads racing the Close itself. Every reader
// must terminate and observe only genuine records.
func TestDecisionLogConcurrent(t *testing.T) {
	const total, readers = 500, 4
	l := NewDecisionLog(64)
	var wg sync.WaitGroup
	counts := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			idx := 0
			var buf []byte
			for {
				recs, n, closed, wake := l.Next(idx)
				idx = n
				for k := range recs {
					d := recs.Decision(k)
					var err error
					if buf, err = AppendDecision(buf[:0], &d); err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					var i int
					if _, err := fmt.Sscanf(d.Policy, "line %d", &i); err != nil || string(buf) != wantLine(t, i) {
						t.Errorf("reader %d: torn record %q", r, buf)
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
			keepLine(t, l, i)
			_ = l.Dropped() // reads racing writes
		}
		l.Close()
	}()
	wg.Wait()
	for r, n := range counts {
		if n == 0 || n > total {
			t.Errorf("reader %d saw %d records, want within (0, %d]", r, n, total)
		}
	}
	// A reader that joins after Close drains the retained tail and exits.
	recs, _, closed, _ := l.Next(0)
	if !closed || len(recs) == 0 {
		t.Fatalf("late reader: %d records closed=%v", len(recs), closed)
	}
}

// TestDecisionLogWakesFollower: keeps with no follower make no wake
// channel, a handed-out channel closes on the next keep, and a follower
// that waits between every keep wakes for each one and for the close —
// the writer waits for each record to be seen, so a lost wakeup hangs the
// follower and fails the test instead of being absorbed by a later keep.
func TestDecisionLogWakesFollower(t *testing.T) {
	l := NewDecisionLog(0)
	keepLine(t, l, 0)
	if l.wake != nil {
		t.Fatal("keep made a wake channel with no follower holding one")
	}
	_, idx, _, wake := l.Next(0)
	keepLine(t, l, 1)
	select {
	case <-wake:
	default:
		t.Fatal("keep did not close the handed-out wake channel")
	}
	_, idx, _, _ = l.Next(idx)

	const total = 200
	seen := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			recs, n, closed, wake := l.Next(idx)
			if len(recs) > 0 {
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
		keepLine(t, l, i)
		select {
		case n := <-seen:
			if n != i+1 {
				t.Fatalf("follower at %d after record %d", n, i)
			}
		case <-timeout:
			t.Fatalf("follower never woke for record %d", i)
		}
	}
	l.Close()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("follower never woke for Close")
	}
}

// renderLog renders every record l retains, as a reader would.
func renderLog(t testing.TB, l *DecisionLog) []byte {
	t.Helper()
	recs, _, _, _ := l.Next(0)
	var out []byte
	for i := range recs {
		d := recs.Decision(i)
		var err error
		if out, err = AppendDecision(out, &d); err != nil {
			t.Fatalf("rendering kept record %d: %v", i, err)
		}
	}
	return out
}

// TestDecisionLogKeepsCopies: the log copies every section and slice, so
// a policy refilling its one record each period does not rewrite what was
// kept, and nil and empty sections and slices render as the encoder
// renders them.
func TestDecisionLogKeepsCopies(t *testing.T) {
	l := NewDecisionLog(0)
	s := NewDecisionLogSink(l)
	var want bytes.Buffer
	enc := NewDecisionSink(&want)
	d := fullDecision()
	weights := d.MPC.RWeights
	for i := 0; i < 100; i++ {
		d.T = float64(i)
		d.MPC.FreqsGHz[i%len(d.MPC.FreqsGHz)] += 0.1
		d.MPC.RWeights = weights[:i%len(weights)]
		d.Alloc.ShiftW = float64(i)
		d.Guard.Degraded = i%2 == 0
		d.UPS.SoC = 1 / float64(i+1)
		if i%5 == 0 {
			d.Mode = ""
		} else {
			d.Mode = "normal"
		}
		s.Emit(d)
		enc.Emit(d)
	}
	d.MPC.RefTrajW = make([]F, 2*slabFloats) // larger than a slab
	d.Guard = nil
	s.Emit(d)
	enc.Emit(d)
	if s.Err() != nil || enc.Err() != nil || s.Count() != enc.Count() {
		t.Fatalf("log sink %d records (%v), encoder %d (%v)", s.Count(), s.Err(), enc.Count(), enc.Err())
	}
	if got := renderLog(t, l); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("kept records render differently from the encoder:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}

// FuzzDecisionLog: for any run of the records FuzzAppendDecision
// generates, kept in one log (so they share its float64 and F slabs),
// rendering the log is the encoder's bytes for the run, and the log
// refuses exactly the record the encoder refuses, with the same error: a
// NaN or infinity in a plain float64 field, never one in an F field such
// as mpc.pfb_w, ref_traj_w or freqs_ghz.
func FuzzDecisionLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 2, 1, 9, 'S', 'p', 'r', 'i', 'n', 't', 'C', 'o', 'n', 6, 'n', 'o', 'r', 'm', 'a', 'l'})
	f.Add(bytes.Repeat([]byte{0xff, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 0x05}, 40))
	f.Add([]byte(strings.Repeat("\x0f\x03<\xe2\x80\xa8&\xff", 30)))
	f.Add(bytes.Repeat(nanFeedbackSeed, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		l := NewDecisionLog(0)
		var want []byte
		for len(r.b) > 0 || len(want) == 0 {
			d := r.decision()
			var wantErr error
			want, wantErr = AppendDecision(want, d)
			if err := l.keep(d); (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("keep err = %v, AppendDecision err = %v\nrecord %+v", err, wantErr, d)
			}
			if wantErr != nil {
				return
			}
		}
		if got := renderLog(t, l); !bytes.Equal(got, want) {
			t.Fatalf("keep-then-render mismatch\n got %s\nwant %s", got, want)
		}
	})
}

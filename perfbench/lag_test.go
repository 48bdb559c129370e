package main

import (
	"testing"
	"time"
)

// A record emitted on tick k is placed where the row's step counter reaches
// k+1, interpolated between the surrounding marks; records outside the
// marks are skipped.
func TestStreamLagPlacement(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	marks := []progressMark{
		{at: at(0), steps: 0},
		{at: at(100), steps: 10},
		{at: at(200), steps: 20},
	}
	recs := []arrival{
		{step: 0, at: at(13)},   // tick 0 done at 10 ms
		{step: 4, at: at(53)},   // tick 4 done at 50 ms
		{step: 9, at: at(100)},  // tick 9 done exactly at the 100 ms mark
		{step: 14, at: at(157)}, // tick 14 done at 150 ms
		{step: 19, at: at(260)}, // tick 19 done at 200 ms
		{step: 20, at: at(300)}, // no mark reaches step 21: skipped
	}
	got := streamLags(marks, recs)
	want := []float64{3, 3, 0, 7, 60}
	if len(got) != len(want) {
		t.Fatalf("streamLags = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("lag %d = %g ms, want %g", i, got[i], want[i])
		}
	}
}

// A record whose tick was already complete at the first mark has no mark
// before it to interpolate from, so it is skipped rather than guessed.
func TestStreamLagSkipsBeforeFirstMark(t *testing.T) {
	t0 := time.Unix(1000, 0)
	marks := []progressMark{{at: t0, steps: 5}, {at: t0.Add(time.Second), steps: 15}}
	got := streamLags(marks, []arrival{{step: 2, at: t0}, {step: 9, at: t0.Add(time.Second)}})
	if len(got) != 1 || !near(got[0], 500) {
		t.Fatalf("streamLags = %v, want [500]", got)
	}
}

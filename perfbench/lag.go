package main

import (
	"sort"
	"time"
)

// progressMark is one point on the server's timeline: by server wall time
// at, the followed row had completed steps lock-step ticks. Status polls
// give one mark each (the run's server start plus the poll's
// elapsed_seconds, and its row step counter); the run's start and finish
// from the summary give the two ends.
type progressMark struct {
	at    time.Time
	steps int
}

// arrival is one decision record as the follow-mode client received it:
// the tick it was emitted on and the client wall time its line arrived.
type arrival struct {
	step int
	at   time.Time
}

// streamLags places every record on the server timeline and returns each
// record's stream lag in milliseconds: arrival time minus the time its row
// completed the record's tick. A record emitted on tick k exists once the
// row's step counter reaches k+1; that instant is interpolated linearly
// between the last mark before it and the first mark at or after it (rows
// tick at a steady rate between two polls, so the interpolation error is
// far below the poll interval). Records with no mark on either side are
// skipped. marks must be in time order with non-decreasing steps; client
// and server share the machine's wall clock.
func streamLags(marks []progressMark, recs []arrival) []float64 {
	var out []float64
	for _, r := range recs {
		need := r.step + 1
		b := sort.Search(len(marks), func(i int) bool { return marks[i].steps >= need })
		if b == 0 || b == len(marks) {
			continue
		}
		a := marks[b-1]
		frac := float64(need-a.steps) / float64(marks[b].steps-a.steps)
		done := a.at.Add(time.Duration(frac * float64(marks[b].at.Sub(a.at))))
		out = append(out, float64(r.at.Sub(done))/float64(time.Millisecond))
	}
	return out
}

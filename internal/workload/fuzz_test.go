package workload

import (
	"strings"
	"testing"
)

// FuzzTraceFromCSV checks that arbitrary CSV input never panics and that
// accepted traces respect the demand bounds and have a positive step.
func FuzzTraceFromCSV(f *testing.F) {
	f.Add("time_s,demand_frac\n0,0.4\n1,0.5\n")
	f.Add("0,0.1\n0.5,0.2\n1.0,0.3\n")
	f.Add("")
	f.Add("garbage")
	f.Add("0,0.5\n1,9999\n2,-5\n")
	f.Add("0,0.5\n0,0.5\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := TraceFromCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if tr.DtS <= 0 {
			t.Fatalf("accepted trace with dt %v", tr.DtS)
		}
		if len(tr.Demand) < 2 {
			t.Fatalf("accepted trace with %d samples", len(tr.Demand))
		}
		for i, d := range tr.Demand {
			if d < 0 || d > 1.2 {
				t.Fatalf("sample %d = %v outside [0, 1.2]", i, d)
			}
		}
	})
}

// FuzzBatchAdvance checks work-accounting invariants under arbitrary
// execution schedules: progress stays in [0, 1), work done never shrinks,
// completions are consistent, and Advance and CurrentUtil match the
// reference copies bit for bit (on a single-phase job and on gcc's three
// phases).
func FuzzBatchAdvance(f *testing.F) {
	f.Add(1.0, 10.0, 0.3)
	f.Add(0.4, 1.0, 0.9)
	f.Add(2.0, 1e-12, 0.5)
	f.Add(1.3, 2.5e-12, 0.1)
	f.Fuzz(func(t *testing.T, freq, dt, beta float64) {
		if freq < 0.1 || freq > 2.0 || dt < 0 || dt > 1e4 || beta < 0 || beta >= 1 {
			return
		}
		spec := BatchSpec{Name: "f", MemBound: beta, Util: 1, PeakSeconds: 50}
		j, err := NewBatchJob(spec, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		single := newAdvancePair(t, spec, 1)
		gcc := newAdvancePair(t, SpecCPU2006()[2], 50/260.0)
		var prevWork float64
		for i := 0; i < 10; i++ {
			j.Advance(freq, 2.0, dt, float64(i)*dt)
			if p := j.Progress(); p < 0 || p >= 1+1e-9 {
				t.Fatalf("progress %v out of range", p)
			}
			w := j.WorkDone()
			if w < prevWork-1e-9 {
				t.Fatalf("work done shrank: %v -> %v", prevWork, w)
			}
			prevWork = w
			// Alternate freq with a second frequency so the remembered
			// rate goes stale every other tick.
			g := freq
			if i%3 == 2 {
				g = 2.1 - freq
			}
			single.advance(g, dt)
			gcc.advance(g, dt)
		}
	})
}

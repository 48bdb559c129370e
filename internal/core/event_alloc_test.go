//go:build !race

// The race detector's runtime allocates shadow state behind instrumented
// code, so heap-malloc counts mean nothing under -race; this file builds
// only without it.

package core

import (
	"runtime"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// The event core's steady state must not allocate (DESIGN.md §15): planning
// and closing another quiescent span costs zero heap allocations. Measured
// two-point: two runs whose durations differ 2× but whose series stride
// scales with duration, so both record the same number of ticks and every
// per-run and series-append allocation cancels in the difference. What
// remains is the marginal cost of the extra discrete events. Each point
// takes the minimum over five runs, because mallocs from the runtime's
// background work only ever add to a run's count. Like testing.AllocsPerRun,
// the measurement pins GOMAXPROCS to 1: the run is one goroutine, but with
// more Ps it can migrate mid-run and miss a per-P sync.Pool cache (fmt's
// printer state), which counts fresh mallocs that are not the event core's.
func TestEventEngineZeroAllocsPerEvent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.NoSprint = true
	mallocs := func(durationS float64) (minMallocs uint64, events int) {
		scn := quiesceScenario(t, durationS)
		tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, 900, durationS, scn.DtS)
		if err != nil {
			t.Fatal(err)
		}
		scn.Trace = tr
		opts := sim.RunOptions{SeriesStride: int(durationS) / 12, DropEvents: true}
		for i := 0; i < 5; i++ {
			p := New(cfg)
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := sim.RunWith(scn, p, opts)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if n := m1.Mallocs - m0.Mallocs; i == 0 || n < minMallocs {
				minMallocs = n
			}
			events = res.Engine.Events
		}
		return minMallocs, events
	}

	for _, d := range []float64{3600, 7200} {
		a1, e1 := mallocs(d)
		a2, e2 := mallocs(2 * d)
		if e2 <= e1 {
			t.Fatalf("%g s vs %g s: %d vs %d events; the longer run must plan more events", d, 2*d, e1, e2)
		}
		perEvent := (float64(a2) - float64(a1)) / float64(e2-e1)
		if perEvent > 0.01 {
			t.Errorf("%g s vs %g s: %.3g allocations per event (%d vs %d mallocs over %d extra events), want 0",
				d, 2*d, perEvent, a1, a2, e2-e1)
		}
	}
}

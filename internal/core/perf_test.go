package core

import (
	"io"
	"testing"

	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// steadyTicker starts SprintCon on the default rack with the given
// observability plane and decision sink (nil detaches either) and returns
// a closure that advances the policy and plant by one tick, after a
// warm-up that lets the controllers fill their caches, the allocator run a
// few P_batch updates (30 s cadence) and every append-backed buffer reach
// its steady capacity.
func steadyTicker(t testing.TB, plane *obs.Plane, sink *telemetry.DecisionSink) func() {
	t.Helper()
	scn := sim.DefaultScenario()
	env, err := sim.BuildEnv(scn)
	if err != nil {
		t.Fatal(err)
	}
	env.Obs = plane
	env.Decisions = sink
	s := New(DefaultConfig())
	if err := s.Start(env, scn); err != nil {
		t.Fatal(err)
	}

	snap := sim.Snapshot{Dt: scn.DtS, UPSSoC: env.UPS.SoC()}
	now := 0.0
	tick := func() {
		snap.Now = now
		snap.MeasuredTotalW = env.Rack.MeasuredPower()
		snap.CBPowerW = env.Rack.TruePower()
		s.Tick(env, snap)
		env.Rack.AdvanceBatch(scn.DtS, now)
		now += scn.DtS
	}
	for i := 0; i < 120; i++ {
		tick()
	}
	return tick
}

// The steady-state tick path must not allocate when telemetry is off
// (DESIGN.md §10): the MPC owns its solve buffers, the QP runs in a
// workspace, and the per-period rack slices are reused. The engine's
// recordTick appends are outside the policy and preallocated separately.
func TestTickPathZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(600, steadyTicker(t, nil, nil))
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.2f times per run, want 0", allocs)
	}
}

// TestTracedControlPeriodZeroAlloc: with a decision sink attached the
// policy refills one owned record every control period, and the encoding
// sink encodes it into a reused buffer while the retaining sink copies it
// into a float slab allocated once per about 30 records, so tracing adds
// no allocation per tick either way.
func TestTracedControlPeriodZeroAlloc(t *testing.T) {
	for _, sink := range []*telemetry.DecisionSink{
		telemetry.NewDecisionSink(io.Discard),
		telemetry.NewDecisionLogSink(telemetry.NewDecisionLog(1 << 10)),
	} {
		tick := steadyTicker(t, nil, sink)
		before := sink.Count()
		allocs := testing.AllocsPerRun(600, tick)
		if allocs != 0 {
			t.Fatalf("traced steady-state tick allocates %.2f times per run, want 0", allocs)
		}
		if sink.Err() != nil || sink.Count()-before < 100 {
			t.Fatalf("sink wrote %d records over 601 ticks (err %v), want one per control period", sink.Count()-before, sink.Err())
		}
	}
}

// BenchmarkTraceOverhead times the steady-state tick loop with the
// observability plane detached (off) and attached (on: span events, rollup
// pushes and detectors live). The on/off ns/op ratio is what tracing costs
// per tick.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, bc := range []struct {
		name  string
		plane func() *obs.Plane
	}{
		{"off", func() *obs.Plane { return nil }},
		{"on", func() *obs.Plane { return obs.NewPlane(0, obs.DefaultDetectorConfig()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tick := steadyTicker(b, bc.plane(), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}

// BenchmarkEventEngine times one capping rack on the 900 s plateau
// diurnal trace for 3600 s, driven tick by tick through Runner.Step and
// through the event core. TestEventEngineBitIdenticalNoSprintDiurnal holds
// the two bit-identical and TestSpanPlanPinned pins the event side's spans.
func BenchmarkEventEngine(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NoSprint = true
	scn := plateauScenario(b, quiesceLevels, 900, 3600)
	b.Run("tick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTicks(b, scn, New(cfg), sim.RunOptions{})
		}
	})
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWith(scn, New(cfg), sim.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterSweep times the event-core fleet: 24 capping racks on
// hour-long plateaus for 7200 s, rack-independent on the worker pool,
// recording hourly. TestSpanPlanPinned pins the fleet's span totals.
func BenchmarkClusterSweep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NoSprint = true
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jobs := fleetJobs(b, cfg, 24, 3600, 7200, 3600)
		b.StartTimer()
		if _, err := sim.RunManyOrdered(jobs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The MPC must keep its QP effort per control period bounded: the mean σ
// steps per solve over the default closed-loop run stays within 1.2× the
// σ search's 2.213 (300 s) and 2.48 (900 s) steps. Every solve converges.
// All figures are deterministic.
func TestMPCSweepsPerSolveBounded(t *testing.T) {
	for _, tc := range []struct {
		durationS, maxMean float64
	}{
		{300, 2.656},
		{900, 2.976},
	} {
		scn := sim.DefaultScenario()
		scn.DurationS = tc.durationS
		res, err := sim.RunWith(scn, New(DefaultConfig()), sim.RunOptions{Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := res.Telemetry.Get("qp_iterations")
		if !ok || p.Count == 0 {
			t.Fatalf("%g s: qp_iterations missing from telemetry", tc.durationS)
		}
		if mean := p.Value / float64(p.Count); mean > tc.maxMean {
			t.Errorf("%g s: %.4g QP sweeps per MPC solve, want <= %g", tc.durationS, mean, tc.maxMean)
		}
		if u, _ := res.Telemetry.Value("qp_unconverged_total"); u != 0 {
			t.Errorf("%g s: %g unconverged QP solves, want 0", tc.durationS, u)
		}
	}
}

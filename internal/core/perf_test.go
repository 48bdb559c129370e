package core

import (
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// The steady-state tick path must not allocate when telemetry is off
// (DESIGN.md §10): the MPC owns its solve buffers, the QP runs in a
// workspace, and the per-period rack slices are reused. The engine's
// recordTick appends are outside the policy and preallocated separately.
func TestTickPathZeroAlloc(t *testing.T) {
	scn := sim.DefaultScenario()
	env, err := sim.BuildEnv(scn)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if err := s.Start(env, scn); err != nil {
		t.Fatal(err)
	}

	snap := sim.Snapshot{
		Dt:             scn.DtS,
		MeasuredTotalW: env.Rack.MeasuredPower(),
		CBPowerW:       env.Rack.TruePower(),
		UPSSoC:         env.UPS.SoC(),
	}
	now := 0.0
	tick := func() {
		snap.Now = now
		snap.MeasuredTotalW = env.Rack.MeasuredPower()
		snap.CBPowerW = env.Rack.TruePower()
		s.Tick(env, snap)
		env.Rack.AdvanceBatch(scn.DtS, now)
		now += scn.DtS
	}
	// Warm up: let the controllers fill caches, the allocator run a few
	// P_batch updates (30 s cadence), and all append-backed buffers reach
	// their steady capacity.
	for i := 0; i < 120; i++ {
		tick()
	}

	allocs := testing.AllocsPerRun(600, tick)
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.2f times per run, want 0", allocs)
	}
}

// The warm-started MPC must keep its QP effort per control period bounded:
// the mean sweeps per solve over the default closed-loop run stays within
// 1.2× of its recorded value (2.8 at 300 s, 4.058 at 900 s), and no solve
// hits the sweep cap. Both figures are deterministic.
func TestMPCSweepsPerSolveBounded(t *testing.T) {
	for _, tc := range []struct {
		durationS, maxMean float64
	}{
		{300, 3.36},
		{900, 4.869},
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

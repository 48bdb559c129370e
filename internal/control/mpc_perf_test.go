package control

import (
	"testing"
)

// A steady-state MPC step must not allocate: all solve buffers are owned by
// the controller (DESIGN.md §10). Both formulations are covered, on an
// inactive box and on one the solve must search past.
func TestMPCStepZeroAlloc(t *testing.T) {
	const n = 32
	for _, full := range []bool{false, true} {
		cfg := DefaultMPCConfig(n, 9.6)
		cfg.FullHorizon = full
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		freqs := make([]float64, n)
		weights := make([]float64, n)
		for i := range freqs {
			freqs[i] = 1.2
			weights[i] = 1
		}
		if _, err := m.Step(3000, 3100, freqs, weights); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Step(3000, 3100, freqs, weights); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("full horizon %v: MPC.Step allocates %.1f times per run, want 0", full, allocs)
		}

		// A 3 kW gap drives the unconstrained move far past FMax, so the
		// solve must search past the all-free σ.
		locked := make([]bool, n)
		locked[0] = true
		if _, err := m.StepLocked(3000, 6000, freqs, weights, locked); err != nil {
			t.Fatal(err)
		}
		if st := m.LastSolve(); st.Sweeps < 2 || !st.Converged {
			t.Fatalf("full horizon %v: large-gap step solved at the all-free σ: %+v", full, st)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := m.StepLocked(3000, 6000, freqs, weights, locked); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("full horizon %v: box-constrained MPC.StepLocked allocates %.1f times per run, want 0", full, allocs)
		}
	}
}

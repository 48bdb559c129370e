package control

import (
	"testing"
)

func newTestMPC(t *testing.T, n int) *MPC {
	t.Helper()
	k := make([]float64, n)
	for i := range k {
		k[i] = 9.6
	}
	m, err := NewMPC(DefaultMPCConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A steady-state MPC step must not allocate: all solve buffers are owned by
// the controller (DESIGN.md §10). Both Hessian forms are covered: the
// equal-off-diagonal one of uniform slopes and the dense one of
// heterogeneous slopes.
func TestMPCStepZeroAlloc(t *testing.T) {
	const n = 32
	hetero := make([]float64, n)
	for i := range hetero {
		hetero[i] = 9 + 0.1*float64(i%7)
	}
	for name, k := range map[string][]float64{"equal-off-diagonal": uniformK(n, 9.6), "dense": hetero} {
		m, err := NewMPC(DefaultMPCConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		if (m.offDiag != nil) != (name == "equal-off-diagonal") {
			t.Fatalf("%s: wrong Hessian form selected", name)
		}
		freqs := make([]float64, n)
		weights := make([]float64, n)
		for i := range freqs {
			freqs[i] = 1.2
			weights[i] = 1
		}
		// Prime the warm cache and any lazily sized state.
		if _, err := m.Step(3000, 3100, freqs, weights); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Step(3000, 3100, freqs, weights); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: MPC.Step allocates %.1f times per run, want 0", name, allocs)
		}

		// A 3 kW gap drives the unconstrained move far past FMax, so the
		// solve needs the active-set solver. The new mask makes the first
		// such solve cold; the repeats start from its optimum.
		locked := make([]bool, n)
		locked[0] = true
		if _, err := m.StepLocked(3000, 6000, freqs, weights, locked); err != nil {
			t.Fatal(err)
		}
		if st := m.LastSolve(); st.Sweeps == 0 || st.Warm {
			t.Fatalf("%s: large-gap cold step solved without the active-set solver: %+v", name, st)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := m.StepLocked(3000, 6000, freqs, weights, locked); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: box-constrained MPC.StepLocked allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// The warm-start cache must be used only while the locked mask is
// unchanged: a stuck-core exclusion (or recovery) invalidates it for one
// solve, after which warm solving resumes under the new mask.
func TestMPCWarmCacheInvalidation(t *testing.T) {
	const n = 8
	m := newTestMPC(t, n)
	freqs := make([]float64, n)
	weights := make([]float64, n)
	for i := range freqs {
		freqs[i] = 1.0
		weights[i] = 1
	}

	step := func(locked []bool) SolveStats {
		t.Helper()
		if _, err := m.StepLocked(800, 900, freqs, weights, locked); err != nil {
			t.Fatal(err)
		}
		return m.LastSolve()
	}

	if st := step(nil); st.Warm {
		t.Fatal("first solve cannot be warm")
	}
	if st := step(nil); !st.Warm {
		t.Fatal("second solve with unchanged mask must be warm")
	}

	locked := make([]bool, n)
	locked[3] = true
	if st := step(locked); st.Warm {
		t.Fatal("mask change must invalidate the warm cache")
	}
	if st := step(locked); !st.Warm {
		t.Fatal("solve under the repeated mask must be warm again")
	}
	// Reverting to all-unlocked is a mask change too.
	if st := step(nil); st.Warm {
		t.Fatal("mask revert must invalidate the warm cache")
	}
}

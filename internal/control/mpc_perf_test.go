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
// the controller (DESIGN.md §10).
func TestMPCStepZeroAlloc(t *testing.T) {
	const n = 32
	m := newTestMPC(t, n)
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
		t.Fatalf("MPC.Step allocates %.1f times per run, want 0", allocs)
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

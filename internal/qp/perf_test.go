package qp

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// constrainedProblem builds an n-variable MPC-shaped QP whose unconstrained
// minimizer violates the box, so the solve must search past the all-free σ:
// one slope k = 9.6 W/GHz for every core, so C = 30·k² with the MPC's
// Σh² = 30 over a 4-period horizon, and a diagonal penalty of 400.
func constrainedProblem(n int) Problem {
	const k = 9.6
	p := Problem{C: (30 * k) * k, D: constant(n, 400), G: mathx.NewVector(n), Lo: constant(n, -1.6), Hi: constant(n, 0.4)}
	for i := 0; i < n; i++ {
		// Pull some coordinates past the upper bound and leave others
		// interior, so the active set is mixed.
		p.G[i] = -(4000 + 2500*float64(i%5)) * k
	}
	return p
}

// A workspace solve must not allocate — this is the hot path's zero-alloc
// contract (DESIGN.md §10).
func TestSolveWorkspaceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	shape := newMPCShape(rng, 32, 0.2, 0.1)
	for _, c := range []struct {
		name string
		p    Problem
	}{
		{"constrained", constrainedProblem(32)},
		{"box-violating", shape.problem(rng, farOutside)},
		{"inactive-box", shape.problem(rng, inside)},
	} {
		ws := NewWorkspace(32)
		if _, err := Solve(c.p, ws); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Solve(c.p, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: workspace solve allocates %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// solveLegacy is the package's original solver, cyclic projected
// coordinate descent from the projection of 0, kept as a reference that
// shares no code with Solve. tol is the already scaled KKT tolerance.
func solveLegacy(p Problem, maxSweeps int, tol float64) (mathx.Vector, bool) {
	n := len(p.G)
	x := mathx.NewVector(n)
	for i := range x {
		x[i] = math.Min(math.Max(0, p.Lo[i]), p.Hi[i])
	}
	h := denseH(p)
	grad := denseMulVec(h, x)
	for i := range grad {
		grad[i] += p.G[i]
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for i := range x {
			xi := math.Min(math.Max(x[i]-grad[i]/h[i*n+i], p.Lo[i]), p.Hi[i])
			d := xi - x[i]
			x[i] = xi
			for j := range grad {
				grad[j] += d * h[j*n+i]
			}
		}
		if denseKKT(p, h, x) <= tol {
			return x, true
		}
	}
	return x, false
}

// Solve must agree with the legacy coordinate-descent reference on the
// same problem. The reference gets a generous sweep budget so the
// comparison is between converged minimizers.
func TestFastMatchesLegacy(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		p := constrainedProblem(n)
		legacy, ok := solveLegacy(p, 10000, defaultTol*(1+p.G.NormInf()))
		fast, err := Solve(p, NewWorkspace(n))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !fast.Converged || !cold.Converged {
			t.Fatalf("n=%d: every path must converge: legacy=%v fast=%v cold=%v", n, ok, fast.Converged, cold.Converged)
		}
		for i := range legacy {
			if math.Abs(legacy[i]-fast.X[i]) > 1e-6 {
				t.Fatalf("n=%d: legacy and fast minimizers diverge at %d: %v vs %v", n, i, legacy[i], fast.X[i])
			}
			// A solve with no workspace runs the same solver on a fresh
			// one: bit-identical to the workspace solve.
			if math.Float64bits(cold.X[i]) != math.Float64bits(fast.X[i]) {
				t.Fatalf("n=%d: fresh-workspace and workspace solves differ at %d: %v vs %v", n, i, cold.X[i], fast.X[i])
			}
		}
	}
}

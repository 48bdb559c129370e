package qp

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// constrainedProblem builds an n-variable strictly convex QP whose
// unconstrained minimizer violates the box, so the solver must iterate on
// the active set (the MPC's steady-state shape: dense rank-one tracking
// term plus a positive diagonal).
func constrainedProblem(n int) Problem {
	h := mathx.NewMatrix(n, n)
	k := constrainedK(n)
	// Weight matches the MPC's Σh² ≈ 30 over a 4-period horizon; the
	// dominant rank-one term is what makes cyclic descent take many
	// sweeps from a cold start.
	h.OuterAdd(30, k, k)
	g := mathx.NewVector(n)
	lo := mathx.NewVector(n)
	hi := mathx.NewVector(n)
	for i := 0; i < n; i++ {
		h.Inc(i, i, 400)
		// Pull some coordinates past the upper bound and leave others
		// interior, so the active set is mixed and cyclic descent needs
		// many sweeps to untangle the coupling.
		g[i] = -(4000 + 2500*float64(i%5)) * k[i]
		lo[i] = -1.6
		hi[i] = 0.4
	}
	return Problem{H: h, G: g, Lo: lo, Hi: hi}
}

// constrainedK is constrainedProblem's per-core slope vector.
func constrainedK(n int) mathx.Vector {
	k := mathx.NewVector(n)
	for i := range k {
		k[i] = 9 + 0.1*float64(i%7)
	}
	return k
}

// perturb returns a copy of p with the linear term nudged — the shape of an
// MPC re-solve one control period later (same H, slightly different gap).
func perturb(p Problem, eps float64) Problem {
	q := p
	q.G = append(mathx.Vector(nil), p.G...)
	for i := range q.G {
		q.G[i] *= 1 + eps
	}
	return q
}

// Warm-starting must reach the same minimizer (within KKT tolerance) as a
// cold solve, in strictly fewer sweeps, when re-solving a perturbed problem
// from the previous solution.
func TestWarmVsColdEquivalence(t *testing.T) {
	p := constrainedProblem(64)
	base, err := Solve(p, Options{MaxSweeps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged || base.Sweeps == 0 {
		t.Fatalf("base solve should converge through box-constrained iterations, got %+v", base)
	}

	next := perturb(p, 0.01)
	cold, err := Solve(next, Options{MaxSweeps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	warmPoint := append(mathx.Vector(nil), base.X...)
	warm, err := Solve(next, Options{Warm: warmPoint, MaxSweeps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged || !warm.Converged {
		t.Fatalf("both solves must converge: cold=%+v warm=%+v", cold, warm)
	}

	// Same minimizer within the KKT tolerance: both satisfy optimality of
	// the same strictly convex problem, so they must agree closely.
	for i := range cold.X {
		if math.Abs(cold.X[i]-warm.X[i]) > 1e-6 {
			t.Fatalf("minimizers diverge at %d: cold %v warm %v", i, cold.X[i], warm.X[i])
		}
	}
	// The solver's tolerance scales with the gradient magnitude; the warm
	// solution must meet the same scaled KKT tolerance the cold one does.
	tol := defaultTol * (1 + next.G.NormInf())
	if r := next.KKTResidual(warm.X); r > tol*10 {
		t.Fatalf("warm solution KKT residual %g exceeds %g", r, tol*10)
	}
	// Sweep counts are deterministic: pin them exactly, so a change that
	// costs the warm start its advantage shows here.
	if cold.Sweeps != 52 || warm.Sweeps != 1 {
		t.Fatalf("sweeps: cold %d, warm %d; want 52 and 1", cold.Sweeps, warm.Sweeps)
	}
	// The warm input must not have been written.
	for i := range warmPoint {
		if warmPoint[i] != base.X[i] {
			t.Fatal("Options.Warm was mutated")
		}
	}
}

// BenchmarkSolveWarmVsCold times TestWarmVsColdEquivalence's re-solve of
// the perturbed 64-variable problem: cold (no warm point, no workspace) and
// warm (from the previous solution, in a workspace). sweeps/op reports the
// solver's effort.
func BenchmarkSolveWarmVsCold(b *testing.B) {
	p := constrainedProblem(64)
	base, err := Solve(p, Options{MaxSweeps: 10000})
	if err != nil {
		b.Fatal(err)
	}
	next := perturb(p, 0.01)
	ws := NewWorkspace(64)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"cold", Options{MaxSweeps: 10000}},
		{"warm", Options{MaxSweeps: 10000, Warm: base.X, Ws: ws}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sweeps int
			for i := 0; i < b.N; i++ {
				res, err := Solve(next, bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				sweeps = res.Sweeps
			}
			b.ReportMetric(float64(sweeps), "sweeps/op")
		})
	}
}

// A workspace solve must not allocate — this is the hot path's zero-alloc
// contract (DESIGN.md §10).
func TestSolveWorkspaceZeroAlloc(t *testing.T) {
	p := constrainedProblem(32)
	ws := NewWorkspace(32)
	warm := mathx.NewVector(32)

	// Prime: first solve fills the workspace and the warm point.
	res, err := Solve(p, Options{Ws: ws})
	if err != nil {
		t.Fatal(err)
	}
	copy(warm, res.X)

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Solve(p, Options{Ws: ws, Warm: warm}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm workspace solve allocates %.1f times per run, want 0", allocs)
	}

	// The cold workspace path (Cholesky + fallback descent) must be
	// allocation-free too.
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := Solve(p, Options{Ws: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cold workspace solve allocates %.1f times per run, want 0", allocs)
	}

	// The equal-off-diagonal form, on the same workspace: a box-violating
	// problem, warm and cold, and one whose shortcut succeeds.
	rng := rand.New(rand.NewSource(32))
	shape := newMPCShape(rng, 32, 0.2, 0.1)
	outside, inBox := shape.problem(rng, farOutside), shape.problem(rng, inside)
	for _, c := range []struct {
		name string
		p    Problem
		warm mathx.Vector
	}{{"box-violating warm", outside, warm}, {"box-violating cold", outside, nil}, {"inactive-box", inBox, nil}} {
		if _, err := Solve(c.p, Options{Ws: ws, Warm: c.warm}); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := Solve(c.p, Options{Ws: ws, Warm: c.warm}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s equal-off-diagonal solve allocates %.1f times per run, want 0", c.name, allocs)
		}
	}
}

// solveLegacy is the original cold solver — the unconstrained Cholesky
// shortcut, else cyclic projected coordinate descent from the projection of
// 0 — kept as the reference Solve is checked against. tol is the already
// scaled KKT tolerance.
func solveLegacy(p Problem, maxSweeps int, tol float64) Result {
	if ws := NewWorkspace(len(p.G)); unconstrainedInBox(p, ws) {
		x := append(mathx.Vector(nil), ws.x...)
		x.Clamp(p.Lo, p.Hi)
		return Result{X: x, Objective: p.Objective(x), Converged: true}
	}
	x := append(mathx.Vector(nil), p.Lo...)
	for i := range x {
		x[i] = math.Min(math.Max(0, p.Lo[i]), p.Hi[i])
	}
	grad := p.Gradient(x)
	sweeps := 0
	for ; sweeps < maxSweeps; sweeps++ {
		maxMove := sweepOnce(p, x, grad)
		if p.KKTResidual(x) <= tol {
			return Result{X: x, Objective: p.Objective(x), Sweeps: sweeps + 1, Converged: true}
		}
		if maxMove == 0 {
			break
		}
	}
	return Result{X: x, Objective: p.Objective(x), Sweeps: sweeps, Converged: p.KKTResidual(x) <= tol*10}
}

// Solve must agree with the legacy coordinate-descent reference on the
// same problem. The reference gets a generous sweep budget so the
// comparison is between converged minimizers (it needs ~800 sweeps at
// n=64; the active-set solver needs a few dozen factorizations at most).
func TestFastMatchesLegacy(t *testing.T) {
	for _, n := range []int{1, 4, 16, 64} {
		p := constrainedProblem(n)
		legacy := solveLegacy(p, 10000, defaultTol*(1+p.G.NormInf()))
		fast, err := Solve(p, Options{Ws: NewWorkspace(n)})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !legacy.Converged || !fast.Converged || !cold.Converged {
			t.Fatalf("n=%d: every path must converge: legacy=%v fast=%v cold=%v",
				n, legacy.Converged, fast.Converged, cold.Converged)
		}
		for i := range legacy.X {
			if math.Abs(legacy.X[i]-fast.X[i]) > 1e-6 {
				t.Fatalf("n=%d: legacy and fast minimizers diverge at %d: %v vs %v", n, i, legacy.X[i], fast.X[i])
			}
			// A solve with no workspace runs the same solver on a fresh
			// one: bit-identical to the workspace solve.
			if math.Float64bits(cold.X[i]) != math.Float64bits(fast.X[i]) {
				t.Fatalf("n=%d: fresh-workspace and workspace solves differ at %d: %v vs %v", n, i, cold.X[i], fast.X[i])
			}
		}
	}
}

func TestWarmDimensionMismatch(t *testing.T) {
	p := constrainedProblem(8)
	if _, err := Solve(p, Options{Warm: mathx.NewVector(5)}); err == nil {
		t.Fatal("expected dimension error for mismatched warm start")
	}
}

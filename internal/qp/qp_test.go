package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sprintcon/internal/mathx"
)

func spd(rng *rand.Rand, n int) *mathx.Matrix {
	b := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Inc(i, j, rng.NormFloat64())
		}
	}
	// h = bᵀ·b + 0.5·I, written into zeroed matrices with Inc.
	h := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			h.Inc(i, j, s)
		}
		h.Inc(i, i, 0.5)
	}
	return h
}

// identity returns the n×n identity matrix.
func identity(n int) *mathx.Matrix {
	m := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Inc(i, i, 1)
	}
	return m
}

// constant returns a length-n vector with every element set to v.
func constant(n int, v float64) mathx.Vector {
	x := mathx.NewVector(n)
	for i := range x {
		x[i] = v
	}
	return x
}

// Test-only evaluations of the problem: the optimality oracles the solver
// tests check its results against.

// Objective evaluates ½xᵀHx + gᵀx.
func (p Problem) Objective(x mathx.Vector) float64 {
	return p.objectiveWith(x, mathx.NewVector(len(x)))
}

// Gradient evaluates Hx + g.
func (p Problem) Gradient(x mathx.Vector) mathx.Vector {
	return p.gradientInto(mathx.NewVector(len(x)), x)
}

// KKTResidual returns the maximum violation of the first-order optimality
// conditions for the box-constrained problem at x: at a lower bound the
// gradient may be positive, at an upper bound negative, and in the interior
// it must vanish.
func (p Problem) KKTResidual(x mathx.Vector) float64 {
	return p.residualAt(x, p.Gradient(x))
}

func TestSolveUnconstrainedInterior(t *testing.T) {
	// min ½xᵀIx − [1 2]x with wide bounds → x = [1 2].
	p := Problem{
		H:  identity(2),
		G:  mathx.Vector{-1, -2},
		Lo: constant(2, -100),
		Hi: constant(2, 100),
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-1) > 1e-9 || math.Abs(r.X[1]-2) > 1e-9 {
		t.Fatalf("X = %v, want [1 2]", r.X)
	}
	if r.Sweeps != 0 {
		t.Fatalf("interior solution should use the Cholesky fast path, sweeps=%d", r.Sweeps)
	}
}

func TestSolveClampedToBounds(t *testing.T) {
	// Unconstrained minimum [1 2] but box [0,0.5]² → both at upper bound?
	// For identity H coordinates decouple: x = [0.5, 0.5].
	p := Problem{
		H:  identity(2),
		G:  mathx.Vector{-1, -2},
		Lo: constant(2, 0),
		Hi: constant(2, 0.5),
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-0.5) > 1e-9 || math.Abs(r.X[1]-0.5) > 1e-9 {
		t.Fatalf("X = %v, want [0.5 0.5]", r.X)
	}
}

func TestSolveMatchesGridSearch2D(t *testing.T) {
	// Coupled 2-D problem verified against a fine grid search.
	h := mathx.NewMatrix(2, 2)
	h.Inc(0, 0, 2)
	h.Inc(0, 1, 0.8)
	h.Inc(1, 0, 0.8)
	h.Inc(1, 1, 1.5)
	p := Problem{H: h, G: mathx.Vector{1.0, -2.0}, Lo: mathx.Vector{-1, -1}, Hi: mathx.Vector{1, 1}}

	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	var bx, by float64
	const steps = 400
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := mathx.Vector{-1 + 2*float64(i)/steps, -1 + 2*float64(j)/steps}
			if v := p.Objective(x); v < best {
				best, bx, by = v, x[0], x[1]
			}
		}
	}
	if math.Abs(r.X[0]-bx) > 2.0/steps || math.Abs(r.X[1]-by) > 2.0/steps {
		t.Fatalf("solver X=%v, grid best=(%v,%v)", r.X, bx, by)
	}
	if r.Objective > best+1e-6 {
		t.Fatalf("solver objective %v worse than grid %v", r.Objective, best)
	}
}

func TestSolveSatisfiesKKTRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		p := Problem{H: spd(rng, n), G: mathx.NewVector(n), Lo: mathx.NewVector(n), Hi: mathx.NewVector(n)}
		for i := 0; i < n; i++ {
			p.G[i] = rng.NormFloat64() * 3
			a, b := rng.NormFloat64(), rng.NormFloat64()
			p.Lo[i], p.Hi[i] = math.Min(a, b), math.Max(a, b)
		}
		r, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Converged {
			t.Fatalf("trial %d did not converge (KKT %g)", trial, p.KKTResidual(r.X))
		}
		for i := range r.X {
			if r.X[i] < p.Lo[i]-1e-9 || r.X[i] > p.Hi[i]+1e-9 {
				t.Fatalf("trial %d: X[%d]=%v outside [%v,%v]", trial, i, r.X[i], p.Lo[i], p.Hi[i])
			}
		}
		if res := p.KKTResidual(r.X); res > 1e-6*(1+p.G.NormInf()) {
			t.Fatalf("trial %d: KKT residual %v", trial, res)
		}
	}
}

// Property: the solver's objective never exceeds that of random feasible
// points (global optimality of convex QP solutions).
func TestSolveBeatsRandomFeasiblePointsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		p := Problem{H: spd(rng, n), G: mathx.NewVector(n), Lo: mathx.NewVector(n), Hi: mathx.NewVector(n)}
		for i := 0; i < n; i++ {
			p.G[i] = rng.NormFloat64()
			p.Lo[i] = -1 - rng.Float64()
			p.Hi[i] = 1 + rng.Float64()
		}
		r, err := Solve(p, Options{})
		if err != nil || !r.Converged {
			return false
		}
		for k := 0; k < 50; k++ {
			x := mathx.NewVector(n)
			for i := range x {
				x[i] = p.Lo[i] + rng.Float64()*(p.Hi[i]-p.Lo[i])
			}
			if p.Objective(x) < r.Objective-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadProblems(t *testing.T) {
	good := Problem{H: identity(2), G: mathx.Vector{0, 0}, Lo: mathx.Vector{0, 0}, Hi: mathx.Vector{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good problem rejected: %v", err)
	}
	bad := good
	bad.Lo = mathx.Vector{2, 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("lo > hi should be rejected")
	}
	bad = good
	bad.G = mathx.Vector{0}
	if err := bad.Validate(); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	h := mathx.NewMatrix(2, 2) // zero diagonal → not strictly convex
	bad = Problem{H: h, G: mathx.Vector{0, 0}, Lo: mathx.Vector{0, 0}, Hi: mathx.Vector{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-diagonal H should be rejected")
	}
	if _, err := Solve(bad, Options{}); err == nil {
		t.Fatal("Solve must propagate validation errors")
	}

	eod := &EqualOffDiag{C: 1, D: mathx.Vector{1, 1}}
	structured := good
	structured.H, structured.EqualOffDiag = nil, eod
	if err := structured.Validate(); err != nil {
		t.Fatalf("good equal-off-diagonal problem rejected: %v", err)
	}
	bad = good
	bad.EqualOffDiag = eod
	if err := bad.Validate(); err == nil {
		t.Fatal("a problem with both H and EqualOffDiag should be rejected")
	}
	bad = good
	bad.H = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("a problem with neither H nor EqualOffDiag should be rejected")
	}
	bad = structured
	bad.EqualOffDiag = &EqualOffDiag{C: 1, D: mathx.Vector{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("an EqualOffDiag D of the wrong length should be rejected")
	}
	bad = structured
	bad.EqualOffDiag = &EqualOffDiag{C: -1, D: mathx.Vector{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("a zero diagonal entry C + D[i] should be rejected")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := Problem{H: mathx.NewMatrix(0, 0), G: mathx.Vector{}, Lo: mathx.Vector{}, Hi: mathx.Vector{}}
	r, err := Solve(p, Options{})
	if err != nil || !r.Converged || len(r.X) != 0 {
		t.Fatalf("empty problem: r=%+v err=%v", r, err)
	}
}

// A degenerate box lo = hi pins the solution exactly, and the solve is
// optimal at once: a fixed coordinate's gradient, of either sign, is no
// KKT violation.
func TestSolveEqualBounds(t *testing.T) {
	p := Problem{
		H:  identity(3),
		G:  mathx.Vector{5, -5, 0},
		Lo: mathx.Vector{0.3, 0.3, 0.3},
		Hi: mathx.Vector{0.3, 0.3, 0.3},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.X {
		if r.X[i] != 0.3 {
			t.Fatalf("X = %v, want all 0.3", r.X)
		}
	}
	if !r.Converged || r.Sweeps != 0 {
		t.Fatalf("converged=%v after %d sweeps, want converged after 0", r.Converged, r.Sweeps)
	}
}

func TestSolveMPCSizedProblem(t *testing.T) {
	// 128 variables ≈ one frequency move per batch core on the rack.
	rng := rand.New(rand.NewSource(99))
	n := 128
	p := Problem{H: spd(rng, n), G: mathx.NewVector(n), Lo: constant(n, -0.4), Hi: constant(n, 0.4)}
	for i := range p.G {
		p.G[i] = rng.NormFloat64() * 5
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("128-var problem did not converge (KKT %g)", p.KKTResidual(r.X))
	}
}

func BenchmarkSolve128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 128
	p := Problem{H: spd(rng, n), G: mathx.NewVector(n), Lo: constant(n, -0.4), Hi: constant(n, 0.4)}
	for i := range p.G {
		p.G[i] = rng.NormFloat64() * 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sprintcon/internal/mathx"
)

// constant returns a length-n vector with every element set to v.
func constant(n int, v float64) mathx.Vector {
	x := mathx.NewVector(n)
	for i := range x {
		x[i] = v
	}
	return x
}

// randomProblem draws an n-variable problem with C ∈ [0, 3), D ∈ [0.5, 3.5),
// g standard normal times gScale and a box around 0 of random width.
func randomProblem(rng *rand.Rand, n int, gScale float64) Problem {
	p := Problem{C: 3 * rng.Float64(), D: mathx.NewVector(n), G: mathx.NewVector(n), Lo: mathx.NewVector(n), Hi: mathx.NewVector(n)}
	for i := 0; i < n; i++ {
		p.D[i] = 0.5 + 3*rng.Float64()
		p.G[i] = rng.NormFloat64() * gScale
		p.Lo[i] = -1 - rng.Float64()
		p.Hi[i] = 1 + rng.Float64()
	}
	return p
}

// solve runs Solve on a fresh workspace and fails the test on an error.
func solve(t testing.TB, p Problem) Result {
	t.Helper()
	r, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSolveUnconstrainedInterior(t *testing.T) {
	// min ½xᵀIx − [1 2]x with wide bounds → x = [1 2].
	p := Problem{D: constant(2, 1), G: mathx.Vector{-1, -2}, Lo: constant(2, -100), Hi: constant(2, 100)}
	r := solve(t, p)
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-1) > 1e-9 || math.Abs(r.X[1]-2) > 1e-9 {
		t.Fatalf("X = %v, want [1 2]", r.X)
	}
	if r.Sweeps != 1 {
		t.Fatalf("an inactive box should be solved at the all-free σ, sweeps=%d", r.Sweeps)
	}
}

func TestSolveClampedToBounds(t *testing.T) {
	// Unconstrained minimum [1 2] but box [0, 0.5]²: for H = I the
	// coordinates decouple, so x = [0.5, 0.5].
	p := Problem{D: constant(2, 1), G: mathx.Vector{-1, -2}, Lo: constant(2, 0), Hi: constant(2, 0.5)}
	r := solve(t, p)
	if !r.Converged {
		t.Fatal("should converge")
	}
	if math.Abs(r.X[0]-0.5) > 1e-9 || math.Abs(r.X[1]-0.5) > 1e-9 {
		t.Fatalf("X = %v, want [0.5 0.5]", r.X)
	}
}

func TestSolveMatchesGridSearch2D(t *testing.T) {
	// Coupled 2-D problem, H = [2 0.8; 0.8 1.5], verified against a fine
	// grid search.
	p := Problem{C: 0.8, D: mathx.Vector{1.2, 0.7}, G: mathx.Vector{1.0, -2.0}, Lo: mathx.Vector{-1, -1}, Hi: mathx.Vector{1, 1}}
	h := denseH(p)
	r := solve(t, p)
	best := math.Inf(1)
	var bx, by float64
	const steps = 400
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := []float64{-1 + 2*float64(i)/steps, -1 + 2*float64(j)/steps}
			if v := denseObjective(h, p.G, x); v < best {
				best, bx, by = v, x[0], x[1]
			}
		}
	}
	if math.Abs(r.X[0]-bx) > 2.0/steps || math.Abs(r.X[1]-by) > 2.0/steps {
		t.Fatalf("solver X=%v, grid best=(%v,%v)", r.X, bx, by)
	}
	if f := denseObjective(h, p.G, r.X); f > best+1e-6 {
		t.Fatalf("solver objective %v worse than grid %v", f, best)
	}
}

func TestSolveSatisfiesKKTRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		p := randomProblem(rng, n, 3)
		h := denseH(p)
		r := solve(t, p)
		if !r.Converged {
			t.Fatalf("trial %d did not converge (KKT %g)", trial, denseKKT(p, h, r.X))
		}
		for i := range r.X {
			if r.X[i] < p.Lo[i] || r.X[i] > p.Hi[i] {
				t.Fatalf("trial %d: X[%d]=%v outside [%v,%v]", trial, i, r.X[i], p.Lo[i], p.Hi[i])
			}
		}
		if res := denseKKT(p, h, r.X); res > 1e-6*(1+p.G.NormInf()) {
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
		p := randomProblem(rng, n, 1)
		h := denseH(p)
		r, err := Solve(p, nil)
		if err != nil || !r.Converged {
			return false
		}
		best := denseObjective(h, p.G, r.X)
		for k := 0; k < 50; k++ {
			x := mathx.NewVector(n)
			for i := range x {
				x[i] = p.Lo[i] + rng.Float64()*(p.Hi[i]-p.Lo[i])
			}
			if denseObjective(h, p.G, x) < best-1e-7 {
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
	good := Problem{C: 1, D: mathx.Vector{1, 1}, G: mathx.Vector{0, 0}, Lo: mathx.Vector{0, 0}, Hi: mathx.Vector{1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good problem rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(p *Problem)
		want   error
	}{
		{"lo > hi", func(p *Problem) { p.Lo = mathx.Vector{2, 0} }, ErrBounds},
		{"short g", func(p *Problem) { p.G = mathx.Vector{0} }, ErrDimension},
		{"short D", func(p *Problem) { p.D = mathx.Vector{1} }, ErrDimension},
		{"zero D", func(p *Problem) { p.D = mathx.Vector{1, 0} }, ErrNotConvex},
		{"NaN D", func(p *Problem) { p.D = mathx.Vector{math.NaN(), 1} }, ErrNotConvex},
		{"negative C", func(p *Problem) { p.C = -1 }, ErrNotConvex},
		{"NaN C", func(p *Problem) { p.C = math.NaN() }, ErrNotConvex},
	} {
		bad := good
		c.mutate(&bad)
		if err := bad.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
		if _, err := Solve(bad, nil); !errors.Is(err, c.want) {
			t.Errorf("%s: Solve = %v, want %v", c.name, err, c.want)
		}
	}
	// A valid H too ill-conditioned for the O(n) solve: its
	// Sherman–Morrison denominator 1 + C·Σ1/D is 2⁴¹ + 1.
	ill := good
	ill.C, ill.D = 0x1p40, mathx.Vector{1, 1}
	if err := ill.Validate(); err != nil {
		t.Fatalf("ill-conditioned problem failed validation: %v", err)
	}
	if _, err := Solve(ill, nil); !errors.Is(err, ErrNotConvex) {
		t.Fatalf("ill-conditioned problem: Solve = %v, want ErrNotConvex", err)
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := Problem{D: mathx.Vector{}, G: mathx.Vector{}, Lo: mathx.Vector{}, Hi: mathx.Vector{}}
	r, err := Solve(p, nil)
	if err != nil || !r.Converged || len(r.X) != 0 || r.Sweeps != 0 {
		t.Fatalf("empty problem: r=%+v err=%v", r, err)
	}
}

// A degenerate box lo = hi pins the solution exactly, and the solve is
// optimal at its first σ: a fixed coordinate's gradient, of either sign,
// is no KKT violation.
func TestSolveEqualBounds(t *testing.T) {
	p := Problem{C: 1, D: constant(3, 1), G: mathx.Vector{5, -5, 0}, Lo: constant(3, 0.3), Hi: constant(3, 0.3)}
	r := solve(t, p)
	for i := range r.X {
		if r.X[i] != 0.3 {
			t.Fatalf("X = %v, want all 0.3", r.X)
		}
	}
	if !r.Converged || r.Sweeps != 1 {
		t.Fatalf("converged=%v after %d sweeps, want converged after 1", r.Converged, r.Sweeps)
	}
}

func TestSolveMPCSizedProblem(t *testing.T) {
	// 128 variables ≈ one frequency move per batch core on the rack.
	rng := rand.New(rand.NewSource(99))
	n := 128
	p := randomProblem(rng, n, 5)
	p.Lo, p.Hi = constant(n, -0.4), constant(n, 0.4)
	r := solve(t, p)
	if !r.Converged {
		t.Fatalf("128-var problem did not converge (KKT %g)", denseKKT(p, denseH(p), r.X))
	}
	if r.Sweeps > stepBound(n) {
		t.Fatalf("%d sweeps, above the bound %d", r.Sweeps, stepBound(n))
	}
}

func BenchmarkSolve128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 128
	p := randomProblem(rng, n, 5)
	p.Lo, p.Hi = constant(n, -0.4), constant(n, 0.4)
	ws := NewWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// stepBound is the most σ steps Solve takes on an n-variable problem,
// 2n + ⌊log₂(2n)⌋ + 4 (see Solve).
func stepBound(n int) int {
	k := 0
	for m := 2 * n; m > 1; m >>= 1 {
		k++
	}
	return 2*n + k + 4
}

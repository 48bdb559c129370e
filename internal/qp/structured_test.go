package qp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// epsilon is the float64 unit roundoff, 2⁻⁵³.
const epsilon = 0x1p-53

// placement says where an MPC-shaped problem's unconstrained minimizer
// sits relative to its box.
type placement int

const (
	inside     placement = iota // every coordinate well inside
	farOutside                  // several coordinates 0.05–1 outside
)

// mpcShape is the fixed part of one rack's constant-move MPC QP: C, D and
// the assembled dense H, the box, and the indices of the cores that are not
// locked.
type mpcShape struct {
	c      float64
	d      mathx.Vector
	h      []float64
	lo, hi mathx.Vector
	free   []int
}

// newMPCShape builds H over n cores the way control.MPC assembles it: every
// core shares one slope k, so every off-diagonal entry is C = (α·k)·k with
// α = Q·Σh² = 30, and D = Σm²·RScale·max(R, 1e-6) = 200·max(R, 1e-6) adds
// on the diagonal. R weights are log-uniform over the job urgency range
// [0.01, 100], except that a floorFrac share are 0 and so sit at the 1e-6
// floor. A lockedFrac share of the cores are locked (lo = hi = 0).
func newMPCShape(rng *rand.Rand, n int, floorFrac, lockedFrac float64) mpcShape {
	const alpha = 30
	k := 8 + 3*rng.Float64()
	s := mpcShape{
		c:  (alpha * k) * k,
		d:  mathx.NewVector(n),
		lo: mathx.NewVector(n),
		hi: mathx.NewVector(n),
	}
	for i := 0; i < n; i++ {
		w := math.Pow(10, -2+4*rng.Float64())
		if rng.Float64() < floorFrac {
			w = 0
		}
		s.d[i] = 5 * (40 * math.Max(w, 1e-6))
		if rng.Float64() < lockedFrac {
			continue // locked
		}
		f := 0.4 + 1.6*rng.Float64()
		s.lo[i], s.hi[i] = 0.4-f, 2.0-f
		s.free = append(s.free, i)
	}
	s.h = denseH(Problem{C: s.c, D: s.d})
	return s
}

// problem returns the shape's QP with g = −H·x*, for an unconstrained
// minimizer x* placed as asked.
func (s mpcShape) problem(rng *rand.Rand, where placement) Problem {
	xs := mathx.NewVector(len(s.lo))
	for _, i := range s.free {
		xs[i] = s.lo[i] + (s.hi[i]-s.lo[i])*(0.05+0.9*rng.Float64())
	}
	if where == farOutside {
		for c, m := 0, 1+rng.Intn(4); c < m; c++ {
			j := s.free[rng.Intn(len(s.free))]
			xs[j] = s.hi[j] + 0.05 + rng.Float64()
		}
	}
	g := denseMulVec(s.h, xs)
	for i := range g {
		g[i] *= -1
	}
	return Problem{C: s.c, D: s.d, G: g, Lo: s.lo, Hi: s.hi}
}

// oracleProblem draws one rack's constant-move MPC QP over n cores the way
// control.MPC builds it, together with its Hessian assembled dense: one
// slope k ∈ [1, 40] W/GHz, C = (α·k)·k with
// α = Q·Σh² = 30, D = Σm²·RScale·r = 200·r with r log-uniform over
// [1e-6, 10], current frequencies f ∈ [0.4, 2.0] GHz giving the box
// [0.4 − f, 2.0 − f], a lockedFrac share of the cores locked (lo = hi = 0),
// and g from an Eq. (7) gap whose size spans four decades of the rack's
// peak batch power. With inside set, g = −H·x* instead, for an x* drawn
// inside the box, so the unconstrained shortcut solves the problem.
func oracleProblem(rng *rand.Rand, n int, lockedFrac float64, inside bool) (Problem, []float64) {
	const alpha = 30
	k := 1 + 39*rng.Float64()
	p := Problem{C: (alpha * k) * k, D: mathx.NewVector(n)}
	g, lo, hi := mathx.NewVector(n), mathx.NewVector(n), mathx.NewVector(n)
	gap := float64(n) * k * 2 * (rng.Float64() - 0.5) * math.Pow(10, -3+3*rng.Float64())
	var track float64 // Σ_h Q·h·e_h
	for step := 1.0; step <= 4; step++ {
		track += step * gap * (1 - math.Exp(-2*step))
	}
	for i := 0; i < n; i++ {
		r := 40 * math.Pow(10, -6+7*rng.Float64())
		p.D[i] = 5 * r
		f := 0.4 + 1.6*rng.Float64()
		g[i] = -track*k + 3*r*(f-2)
		if rng.Float64() >= lockedFrac {
			lo[i], hi[i] = 0.4-f, 2-f
		}
	}
	h := denseH(p)
	if inside {
		xs := mathx.NewVector(n)
		for i := range xs {
			xs[i] = lo[i] + (hi[i]-lo[i])*(0.05+0.9*rng.Float64())
		}
		g = denseMulVec(h, xs)
		for i := range g {
			g[i] = -g[i]
		}
	}
	p.G, p.Lo, p.Hi = g, lo, hi
	return p, h
}

// clampAll rewrites p's g so that the minimizer has every coordinate at
// its upper bound (atHi) or at its lower bound: each |g[i]| exceeds
// D[i]·|x[i]| + C·Σ|x| at every point of the box.
func clampAll(rng *rand.Rand, p Problem, atHi bool) Problem {
	var sumAbs float64
	for i := range p.Lo {
		sumAbs += math.Max(math.Abs(p.Lo[i]), math.Abs(p.Hi[i]))
	}
	g := mathx.NewVector(len(p.G))
	for i := range g {
		bound := p.D[i]*math.Max(math.Abs(p.Lo[i]), math.Abs(p.Hi[i])) + p.C*sumAbs
		g[i] = (1 + bound) * (1 + rng.Float64())
		if atHi {
			g[i] = -g[i]
		}
	}
	p.G = g
	return p
}

// The tolerance oracle. Over generated MPC-shaped problems (oracleProblem,
// n = 1…130, box-constrained and with an inactive box) and, for every n,
// one whose minimizer has every coordinate at its upper bound, one with
// every coordinate at its lower bound and one with every core locked, the
// solve must converge within the step bound and agree with the dense
// reference: |Δx|∞ ≤ δ = 16·n·κ̂·ε·(1 + ‖x‖∞) with κ̂ = (max D + C·n)/min D,
// an upper bound on H's 2-norm condition number, so n·κ̂·ε·‖x‖ is the
// first-order size of each path's rounding error; the objectives, both
// evaluated with the dense H, within the gap that δ allows; and the KKT
// residual of its minimizer, with the dense gradient, within the solver's
// tolerance.
func TestEqualOffDiagMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	extra := rand.New(rand.NewSource(41))
	var worst float64 // largest |Δx|∞/δ seen, for the log
	inBox, boxed, maxSweeps := 0, 0, 0
	check := func(n int, name string, p Problem, h []float64) {
		t.Helper()
		want, ok := denseSolve(h, p.G, p.Lo, p.Hi)
		if !ok {
			t.Fatalf("n=%d %s: dense reference did not converge", n, name)
		}
		got := solve(t, p)
		if !got.Converged {
			t.Fatalf("n=%d %s: did not converge", n, name)
		}
		if got.Sweeps > stepBound(n) {
			t.Fatalf("n=%d %s: %d sweeps, above the bound %d", n, name, got.Sweeps, stepBound(n))
		}
		maxSweeps = max(maxSweeps, got.Sweeps)
		if got.Sweeps == 1 {
			inBox++
		} else {
			boxed++
		}
		minD, maxD := math.Inf(1), 0.0
		for _, d := range p.D {
			minD, maxD = math.Min(minD, d), math.Max(maxD, d)
		}
		hNorm := maxD + p.C*float64(n)
		tol := defaultTol * (1 + p.G.NormInf())
		delta := 16 * float64(n) * (hNorm / minD) * epsilon * (1 + want.NormInf())
		var dx float64
		for i := range got.X {
			dx = math.Max(dx, math.Abs(got.X[i]-want[i]))
		}
		if !(dx <= delta) {
			t.Fatalf("n=%d %s: |Δx|∞ = %g > δ = %g", n, name, dx, delta)
		}
		worst = math.Max(worst, dx/delta)
		// f(x) − f(x̂) = ∇f(x̂)·Δx + ½·ΔxᵀHΔx; the gradient is at most
		// tol on free coordinates and Δx vanishes on shared bounds, and
		// evaluating f rounds by n·ε times its absolute terms.
		fGot, fWant := denseObjective(h, p.G, got.X), denseObjective(h, p.G, want)
		var abs float64
		for i, xi := range want {
			abs += math.Abs(p.G[i]*xi) + 0.5*hNorm*math.Abs(xi)*want.NormInf()
		}
		objTol := float64(n)*delta*(tol+hNorm*delta) + 4*float64(n)*epsilon*abs
		if gap := math.Abs(fGot - fWant); !(gap <= objTol) {
			t.Fatalf("n=%d %s: objective %g, dense %g, gap %g > %g", n, name, fGot, fWant, gap, objTol)
		}
		if r := denseKKT(p, h, got.X); !(r <= tol) {
			t.Fatalf("n=%d %s: KKT residual %g > tol %g", n, name, r, tol)
		}
	}
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 6; trial++ {
			p, h := oracleProblem(rng, n, []float64{0, 0.05, 0.2, 0.5, 0, 0.2}[trial], trial >= 4)
			check(n, fmt.Sprintf("trial %d", trial), p, h)
			// The draws of the warm start earlier versions also checked,
			// kept so that the generated problems stay the same.
			for i := 0; i < n; i++ {
				rng.Float64()
			}
		}
		p, h := oracleProblem(extra, n, 0, false)
		check(n, "all at hi", clampAll(extra, p, true), h)
		check(n, "all at lo", clampAll(extra, p, false), h)
		p, h = oracleProblem(extra, n, 1, false)
		check(n, "all locked", p, h)
	}
	if inBox == 0 || boxed == 0 {
		t.Fatalf("oracle covered %d one-step and %d box-constrained solves; want both", inBox, boxed)
	}
	t.Logf("worst |Δx|∞/δ = %.3g over %d one-step and %d box-constrained solves, at most %d sweeps", worst, inBox, boxed, maxSweeps)
}

// A problem whose D is shorter than n is a dimension error from Solve, not
// a silent read past the end or a wrong answer.
func TestHintDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newMPCShape(rng, 8, 0, 0).problem(rng, inside)
	p.D = p.D[:7]
	if _, err := Solve(p, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("expected ErrDimension for a D of the wrong length, got %v", err)
	}
}

// BenchmarkSolveMPC64 solves one 64-core rack's MPC QP with a changing
// linear term on one workspace, as control.MPC does. Half the solves have
// an inactive box and half a violated one, near the 49 % / 51 % split of
// the benchmark workloads. sweeps/op reports the mean σ steps.
func BenchmarkSolveMPC64(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(64))
	shape := newMPCShape(rng, n, 0, 0)
	probs := make([]Problem, 16)
	for i := range probs {
		where := inside
		if i%2 == 1 {
			where = farOutside
		}
		probs[i] = shape.problem(rng, where)
	}
	ws := NewWorkspace(n)
	var sweeps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(probs[i%len(probs)], ws)
		if err != nil {
			b.Fatal(err)
		}
		sweeps += res.Sweeps
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
}

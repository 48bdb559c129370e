package qp

import (
	"errors"
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

// mpcShape is the fixed part of one rack's constant-move MPC QP: H in its
// equal-off-diagonal form and as the assembled dense matrix, the box, and
// the indices of the cores that are not locked.
type mpcShape struct {
	eod    *EqualOffDiag
	h      *mathx.Matrix
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
		eod: &EqualOffDiag{C: (alpha * k) * k, D: mathx.NewVector(n)},
		h:   mathx.NewMatrix(n, n),
		lo:  mathx.NewVector(n),
		hi:  mathx.NewVector(n),
	}
	s.h.OuterAdd(alpha, constant(n, k), constant(n, k))
	for i := 0; i < n; i++ {
		w := math.Pow(10, -2+4*rng.Float64())
		if rng.Float64() < floorFrac {
			w = 0
		}
		s.eod.D[i] = 5 * (40 * math.Max(w, 1e-6))
		s.h.Inc(i, i, s.eod.D[i])
		if rng.Float64() < lockedFrac {
			continue // locked
		}
		f := 0.4 + 1.6*rng.Float64()
		s.lo[i], s.hi[i] = 0.4-f, 2.0-f
		s.free = append(s.free, i)
	}
	return s
}

// problem returns the shape's QP in its equal-off-diagonal form with
// g = −H·x*, for an unconstrained minimizer x* placed as asked.
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
	g := s.h.MulVecInto(mathx.NewVector(len(xs)), xs)
	for i := range g {
		g[i] *= -1
	}
	return Problem{EqualOffDiag: s.eod, G: g, Lo: s.lo, Hi: s.hi}
}

// dense returns p with its cost matrix given as the dense twin h.
func dense(p Problem, h *mathx.Matrix) Problem {
	p.EqualOffDiag, p.H = nil, h
	return p
}

// oracleProblem draws one rack's constant-move MPC QP over n cores the way
// control.MPC builds it, in the equal-off-diagonal form, together with the
// dense twin of its Hessian: one slope k ∈ [1, 40] W/GHz, C = (α·k)·k with
// α = Q·Σh² = 30, D = Σm²·RScale·r = 200·r with r log-uniform over
// [1e-6, 10], current frequencies f ∈ [0.4, 2.0] GHz giving the box
// [0.4 − f, 2.0 − f], a lockedFrac share of the cores locked (lo = hi = 0),
// and g from an Eq. (7) gap whose size spans four decades of the rack's
// peak batch power. With inside set, g = −H·x* instead, for an x* drawn
// inside the box, so the unconstrained shortcut solves the problem.
func oracleProblem(rng *rand.Rand, n int, lockedFrac float64, inside bool) (Problem, *mathx.Matrix) {
	const alpha = 30
	k := 1 + 39*rng.Float64()
	e := &EqualOffDiag{C: (alpha * k) * k, D: mathx.NewVector(n)}
	h := mathx.NewMatrix(n, n)
	h.OuterAdd(alpha, constant(n, k), constant(n, k))
	g, lo, hi := mathx.NewVector(n), mathx.NewVector(n), mathx.NewVector(n)
	gap := float64(n) * k * 2 * (rng.Float64() - 0.5) * math.Pow(10, -3+3*rng.Float64())
	var track float64 // Σ_h Q·h·e_h
	for step := 1.0; step <= 4; step++ {
		track += step * gap * (1 - math.Exp(-2*step))
	}
	for i := 0; i < n; i++ {
		r := 40 * math.Pow(10, -6+7*rng.Float64())
		e.D[i] = 5 * r
		h.Inc(i, i, e.D[i])
		f := 0.4 + 1.6*rng.Float64()
		g[i] = -track*k + 3*r*(f-2)
		if rng.Float64() >= lockedFrac {
			lo[i], hi[i] = 0.4-f, 2-f
		}
	}
	if inside {
		xs := mathx.NewVector(n)
		for i := range xs {
			xs[i] = lo[i] + (hi[i]-lo[i])*(0.05+0.9*rng.Float64())
		}
		h.MulVecInto(g, xs)
		for i := range g {
			g[i] = -g[i]
		}
	}
	return Problem{EqualOffDiag: e, G: g, Lo: lo, Hi: hi}, h
}

// The tolerance oracle. Over generated MPC-shaped problems (oracleProblem,
// n = 1…130, box-constrained and solved by the shortcut), cold and warm, the O(n) equal-off-diagonal form must
// converge and agree with its dense twin: |Δx|∞ ≤ δ = 16·n·κ̂·ε·(1 + ‖x‖∞)
// with κ̂ = (max D + C·n)/min D, an upper bound on H's 2-norm condition
// number, so n·κ̂·ε·‖x‖ is the first-order size of each path's rounding
// error; the objectives, both evaluated with the dense H, within the gap
// that δ allows; and the KKT residual of its minimizer, with the dense
// gradient, within the solver's tolerance. A warm solve must land within δ
// of the cold one.
func TestEqualOffDiagMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var worst float64 // largest |Δx|∞/δ seen, for the log
	inBox, boxed := 0, 0
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 6; trial++ {
			p, h := oracleProblem(rng, n, []float64{0, 0.05, 0.2, 0.5, 0, 0.2}[trial], trial >= 4)
			twin := dense(p, h)
			minD, maxD := math.Inf(1), 0.0
			for _, d := range p.EqualOffDiag.D {
				minD, maxD = math.Min(minD, d), math.Max(maxD, d)
			}
			hNorm := maxD + p.EqualOffDiag.C*float64(n)
			tol := defaultTol * (1 + p.G.NormInf())
			var cold mathx.Vector
			for _, warm := range []bool{false, true} {
				opt := Options{}
				if warm {
					opt.Warm = mathx.NewVector(n)
					for i := range opt.Warm {
						opt.Warm[i] = p.Lo[i] + (p.Hi[i]-p.Lo[i])*rng.Float64()
					}
				}
				want, err := Solve(twin, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Solve(p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Converged || !want.Converged {
					t.Fatalf("n=%d trial %d warm=%v: converged %v, dense %v", n, trial, warm, got.Converged, want.Converged)
				}
				if got.Sweeps == 0 {
					inBox++
				} else {
					boxed++
				}
				delta := 16 * float64(n) * (hNorm / minD) * epsilon * (1 + want.X.NormInf())
				var dx float64
				for i := range got.X {
					dx = math.Max(dx, math.Abs(got.X[i]-want.X[i]))
				}
				if !(dx <= delta) {
					t.Fatalf("n=%d trial %d warm=%v: |Δx|∞ = %g > δ = %g", n, trial, warm, dx, delta)
				}
				worst = math.Max(worst, dx/delta)
				if cold == nil {
					cold = append(mathx.Vector(nil), got.X...)
				} else {
					for i := range cold {
						if d := math.Abs(got.X[i] - cold[i]); !(d <= delta) {
							t.Fatalf("n=%d trial %d: warm x[%d] %g from cold > δ = %g", n, trial, i, d, delta)
						}
					}
				}
				// f(x) − f(x̂) = ∇f(x̂)·Δx + ½·ΔxᵀHΔx; the gradient is
				// at most tol on free coordinates and Δx vanishes on
				// shared bounds, and evaluating f rounds by n·ε times
				// its absolute terms.
				fGot, fWant := twin.Objective(got.X), twin.Objective(want.X)
				var abs float64
				for i, xi := range want.X {
					abs += math.Abs(p.G[i]*xi) + 0.5*hNorm*math.Abs(xi)*want.X.NormInf()
				}
				objTol := float64(n)*delta*(tol+hNorm*delta) + 4*float64(n)*epsilon*abs
				if gap := math.Abs(fGot - fWant); !(gap <= objTol) {
					t.Fatalf("n=%d trial %d warm=%v: objective %g, dense %g, gap %g > %g", n, trial, warm, fGot, fWant, gap, objTol)
				}
				if r := twin.KKTResidual(got.X); !(r <= tol) {
					t.Fatalf("n=%d trial %d warm=%v: KKT residual %g > tol %g", n, trial, warm, r, tol)
				}
			}
		}
	}
	if inBox == 0 || boxed == 0 {
		t.Fatalf("oracle covered %d shortcut and %d box-constrained solves; want both", inBox, boxed)
	}
	t.Logf("worst |Δx|∞/δ = %.3g over %d shortcut and %d box-constrained solves", worst, inBox, boxed)
}

// An MPC-shaped problem whose equal-off-diagonal D (the successor of the
// old diagonal-plus-rank-one hint) is shorter than n is a dimension error
// from Solve, not a silent read past the end or a wrong answer.
func TestHintDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newMPCShape(rng, 8, 0, 0).problem(rng, inside)
	p.EqualOffDiag = &EqualOffDiag{C: p.EqualOffDiag.C, D: p.EqualOffDiag.D[:7]}
	if _, err := Solve(p, Options{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("expected ErrDimension for a mismatched EqualOffDiag, got %v", err)
	}
}

// BenchmarkSolveMPC64Warm re-solves one 64-core rack's MPC QP with a
// changing linear term, each solve seeded with the previous solution as
// control.MPC does, in the equal-off-diagonal form and as the dense twin.
// Half the solves have an inactive box and half a violated one, near the
// 49 % / 51 % split of the benchmark workloads.
func BenchmarkSolveMPC64Warm(b *testing.B) {
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
	for _, structured := range []bool{true, false} {
		name := "structured"
		if !structured {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace(n)
			warm := mathx.NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probs[i%len(probs)]
				if !structured {
					p = dense(p, shape.h)
				}
				res, err := Solve(p, Options{Ws: ws, Warm: warm})
				if err != nil {
					b.Fatal(err)
				}
				copy(warm, res.X)
			}
		})
	}
}

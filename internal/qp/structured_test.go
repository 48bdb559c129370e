package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// bitsEqual reports exact bit equality of two vectors.
func bitsEqual(a, b mathx.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameResult reports whether two results agree bit for bit.
func sameResult(a, b Result) bool {
	return bitsEqual(a.X, b.X) && math.Float64bits(a.Objective) == math.Float64bits(b.Objective) &&
		a.Sweeps == b.Sweeps && a.Converged == b.Converged
}

// placement says where an MPC-shaped problem's unconstrained minimizer
// sits relative to its box.
type placement int

const (
	inside      placement = iota // every coordinate well inside
	justInside                   // one coordinate 1e-9 inside a bound
	justOutside                  // one coordinate 1e-9 outside a bound
	farOutside                   // several coordinates 0.05–1 outside
	numPlacements
)

func (p placement) String() string {
	return [...]string{"inside", "just-inside", "just-outside", "far-outside"}[p]
}

// mpcShape is the fixed part of one rack's constant-move MPC QP: H in its
// equal-off-diagonal form and as the dense matrix the same bits assemble
// to, the box, and the indices of the cores that are not locked.
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
	j := s.free[rng.Intn(len(s.free))]
	switch where {
	case justInside:
		xs[j] = s.hi[j] - 1e-9
	case justOutside:
		xs[j] = s.lo[j] - 1e-9
	case farOutside:
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

// The equal-off-diagonal form and its assembled dense twin agree bit for
// bit in every result field, cold and warm, on generated MPC-shaped
// problems: floored R weights, locked cores, and minimizers inside, just
// inside, just outside and far outside the box. Whenever the certificate
// fires, the shortcut really lands outside the box. It must fire on every
// clearly infeasible problem (or the skip would never happen) and never on
// a feasible one. Locked cores send some solves through the
// coordinate-descent fallback (ROADMAP item 6), which must be covered too.
func TestEqualOffDiagBitIdenticalAndCertificateSound(t *testing.T) {
	const n, trials = 64, 40
	rng := rand.New(rand.NewSource(14))
	fallbacks := 0
	for where := placement(0); where < numPlacements; where++ {
		fired := 0
		for trial := 0; trial < trials; trial++ {
			shape := newMPCShape(rng, n, 0.2, 0.1)
			p := shape.problem(rng, where)
			twin := dense(p, shape.h)
			warm := mathx.NewVector(n)
			for i := range warm {
				warm[i] = p.Lo[i] + (p.Hi[i]-p.Lo[i])*rng.Float64()
			}
			for _, w := range []mathx.Vector{nil, warm} {
				want, err := Solve(twin, Options{Ws: NewWorkspace(n), Warm: w})
				if err != nil {
					t.Fatal(err)
				}
				got, err := Solve(p, Options{Ws: NewWorkspace(n), Warm: w})
				if err != nil {
					t.Fatal(err)
				}
				// Converged is compared, not required: KKTResidual
				// counts a negative gradient at a locked core (lo = hi)
				// as a violation, so such a solve may end unconverged.
				if !sameResult(got, want) {
					t.Fatalf("%v trial %d warm=%v: equal-off-diagonal %+v, dense %+v", where, trial, w != nil, got, want)
				}
				// More iterations than the active-set cap allows means
				// the fallback ran.
				if got.Sweeps > activeSetIterCap(n) {
					fallbacks++
				}
			}
			if certifiesOutside(p, mathx.NewVector(n)) {
				fired++
				if unconstrainedInBox(p, NewWorkspace(n)) || unconstrainedInBox(twin, NewWorkspace(n)) {
					t.Fatalf("%v trial %d: certificate fired but the shortcut lands in the box", where, trial)
				}
			}
			if certifiesOutside(twin, mathx.NewVector(n)) {
				t.Fatalf("%v trial %d: certificate fired on a dense H", where, trial)
			}
		}
		switch {
		case where == farOutside && fired != trials:
			t.Errorf("%v: certificate fired on %d of %d problems, want all", where, fired, trials)
		case where <= justInside && fired != 0:
			t.Errorf("%v: certificate fired on %d feasible problems", where, fired)
		}
	}
	if fallbacks == 0 {
		t.Error("no solve reached the coordinate-descent fallback")
	}
}

// A locked core (lo = hi) whose gradient is negative stops the active-set
// solver at its residual floor, so the solve runs the coordinate-descent
// fallback and ends unconverged (ROADMAP item 6); both forms must still
// agree bit for bit.
func TestEqualOffDiagFallbackBitIdentical(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(21))
	shape := newMPCShape(rng, n, 0, 0)
	p := shape.problem(rng, farOutside)
	lo, hi, g := p.Lo.Clone(), p.Hi.Clone(), p.G.Clone()
	lo[3], hi[3], g[3] = 0, 0, g[3]-1e4
	p.Lo, p.Hi, p.G = lo, hi, g
	want, err := Solve(dense(p, shape.h), Options{MaxSweeps: 50})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(p, Options{MaxSweeps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got.Converged {
		t.Fatalf("solve converged, so the fallback did not run: %+v", got)
	}
	if !sameResult(got, want) {
		t.Fatalf("equal-off-diagonal %+v, dense %+v", got, want)
	}
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

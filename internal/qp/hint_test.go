package qp

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

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

// mpcShape is the fixed part of one rack's constant-move MPC QP: H, its
// hint and the box, with the indices of the cores that are not locked.
type mpcShape struct {
	h      *mathx.Matrix
	hint   *DiagRankOne
	lo, hi mathx.Vector
	free   []int
}

// newMPCShape builds H over n cores the way control.MPC assembles it:
// H = α·k·kᵀ with α = Q·Σh² = 30, then D = Σm²·RScale·max(R, 1e-6) =
// 200·max(R, 1e-6) added on the diagonal. R weights are log-uniform over
// the job urgency range [0.01, 100], except that a floorFrac share are 0
// and so sit at the 1e-6 floor. A lockedFrac share of the cores are locked
// (lo = hi = 0).
func newMPCShape(rng *rand.Rand, n int, floorFrac, lockedFrac float64) mpcShape {
	k := mathx.NewVector(n)
	d := mathx.NewVector(n)
	for i := range k {
		k[i] = 8 + 3*rng.Float64()
		w := math.Pow(10, -2+4*rng.Float64())
		if rng.Float64() < floorFrac {
			w = 0
		}
		d[i] = 5 * (40 * math.Max(w, 1e-6))
	}
	const alpha = 30
	s := mpcShape{
		h:    mathx.NewMatrix(n, n),
		hint: &DiagRankOne{D: d, Alpha: alpha, K: k},
		lo:   mathx.NewVector(n),
		hi:   mathx.NewVector(n),
	}
	s.h.OuterAdd(alpha, k, k)
	for i := 0; i < n; i++ {
		s.h.Inc(i, i, d[i])
		if rng.Float64() < lockedFrac {
			continue // locked
		}
		f := 0.4 + 1.6*rng.Float64()
		s.lo[i], s.hi[i] = 0.4-f, 2.0-f
		s.free = append(s.free, i)
	}
	return s
}

// problem returns the shape's QP with g = −H·x*, for an unconstrained
// minimizer x* placed as asked. It carries the matching hint.
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
	return Problem{H: s.h, G: s.h.MulVec(xs).Scale(-1), Lo: s.lo, Hi: s.hi, Hint: s.hint}
}

// mpcProblem is one MPC-shaped problem on a fresh shape with a fifth of
// the weights floored and a tenth of the cores locked.
func mpcProblem(rng *rand.Rand, n int, where placement) Problem {
	return newMPCShape(rng, n, 0.2, 0.1).problem(rng, where)
}

// sameResult reports whether two results agree bit for bit.
func sameResult(a, b Result) bool {
	return bitsEqual(a.X, b.X) && math.Float64bits(a.Objective) == math.Float64bits(b.Objective) &&
		a.Sweeps == b.Sweeps && a.Converged == b.Converged
}

// The structure hint only skips a shortcut that would be thrown away, so a
// hinted solve is bit-identical to an unhinted one — cold and warm — and
// whenever the certificate fires, the dense shortcut really lands outside
// the box. The certificate must fire on the clearly infeasible problems
// (or the fast path would never run) and never on feasible ones.
func TestHintBitIdenticalAndCertificateSound(t *testing.T) {
	const n, trials = 64, 40
	rng := rand.New(rand.NewSource(14))
	for where := placement(0); where < numPlacements; where++ {
		fired := 0
		for trial := 0; trial < trials; trial++ {
			p := mpcProblem(rng, n, where)
			bare := p
			bare.Hint = nil
			warm := mathx.NewVector(n)
			for i := range warm {
				warm[i] = p.Lo[i] + (p.Hi[i]-p.Lo[i])*rng.Float64()
			}
			for _, w := range []mathx.Vector{nil, warm} {
				want, err := Solve(bare, Options{Ws: NewWorkspace(n), Warm: w})
				if err != nil {
					t.Fatal(err)
				}
				got, err := Solve(p, Options{Ws: NewWorkspace(n), Warm: w})
				if err != nil {
					t.Fatal(err)
				}
				// Converged is compared, not required: KKTResidual
				// counts a negative gradient at a locked core (lo = hi)
				// as a violation, so many of these solves end
				// unconverged whichever path they take.
				if !sameResult(got, want) {
					t.Fatalf("%v trial %d warm=%v: hinted %+v, unhinted %+v", where, trial, w != nil, got, want)
				}
			}
			if certifiesOutside(p, mathx.NewVector(n)) {
				fired++
				if unconstrainedInBox(p, NewWorkspace(n)) {
					t.Fatalf("%v trial %d: certificate fired but the dense shortcut lands in the box", where, trial)
				}
			}
		}
		switch {
		case where == farOutside && fired != trials:
			t.Errorf("%v: certificate fired on %d of %d problems, want all", where, fired, trials)
		case where <= justInside && fired != 0:
			t.Errorf("%v: certificate fired on %d feasible problems", where, fired)
		}
	}
}

// A hint that does not describe H changes only the path: the solve still
// returns a converged, KKT-verified result (Converged means a residual
// within tol, or 10·tol after the descent fallback). Some wrong hints fire
// on problems whose dense shortcut would have succeeded, which forces the
// active-set solver onto a problem with an inactive box. No core is locked
// here, so every unhinted solve converges.
func TestWrongHintStillConverges(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(15))
	wrong := []func(h DiagRankOne) DiagRankOne{
		func(h DiagRankOne) DiagRankOne { h.Alpha = 0; return h },
		func(h DiagRankOne) DiagRankOne { h.Alpha *= 100; return h },
		func(h DiagRankOne) DiagRankOne { h.D = h.D.Scale(1e-3); return h },
		func(h DiagRankOne) DiagRankOne { h.K = h.K.Scale(-1.5); return h },
	}
	misfired := 0
	for trial := 0; trial < 20; trial++ {
		p := newMPCShape(rng, n, 0.2, 0).problem(rng, placement(trial)%numPlacements)
		bare := p
		bare.Hint = nil
		if want, err := Solve(bare, Options{}); err != nil || !want.Converged {
			t.Fatalf("trial %d: unhinted solve did not converge (%v)", trial, err)
		}
		tol := defaultTol * (1 + p.G.NormInf())
		for v, corrupt := range wrong {
			h := corrupt(*p.Hint)
			q := p
			q.Hint = &h
			if certifiesOutside(q, mathx.NewVector(n)) && unconstrainedInBox(q, NewWorkspace(n)) {
				misfired++
			}
			got, err := Solve(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r := q.KKTResidual(got.X); !got.Converged || r > 10*tol {
				t.Fatalf("trial %d wrong hint %d: converged=%v KKT %g > %g", trial, v, got.Converged, r, 10*tol)
			}
		}
	}
	if misfired == 0 {
		t.Fatal("no wrong hint skipped a successful shortcut; the test exercises nothing")
	}
}

func TestHintDimensionMismatch(t *testing.T) {
	p := mpcProblem(rand.New(rand.NewSource(1)), 8, inside)
	p.Hint.D = p.Hint.D[:7]
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected dimension error for a mismatched hint")
	}
}

// BenchmarkSolveMPC64Warm re-solves one 64-core rack's MPC QP with a
// changing linear term, each solve seeded with the previous solution as
// control.MPC does. Half the solves have an inactive box and half a violated
// one, near the 49 % / 51 % split of the benchmark workloads.
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
	for _, hinted := range []bool{true, false} {
		name := "hinted"
		if !hinted {
			name = "unhinted"
		}
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace(n)
			warm := mathx.NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probs[i%len(probs)]
				if !hinted {
					p.Hint = nil
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

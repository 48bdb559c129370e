package qp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// fold maps a float64 onto magnitudes in [2⁻¹¹, 2¹⁰), keeping its sign and
// its mantissa and wrapping its exponent; 0, NaN and the infinities pass
// through. Every bit pattern then decodes to a value of the scale the MPC
// works at, or to one of the special values.
func fold(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	frac, exp := math.Frexp(v)
	return math.Ldexp(frac, ((exp+10)%21+21)%21-10)
}

// decodeBoxQP reads a problem with n ≤ 70 coordinates from raw: per
// coordinate D, g, lo and hi as raw float64 bits, each folded, with D and C
// taken by magnitude and lo and hi swapped when out of order; n is shortened
// to what raw holds. mode%4 then makes every coordinate locked (1: hi = lo),
// or rewrites g so that every coordinate's minimizer sits at its lower (2)
// or upper (3) bound.
func decodeBoxQP(n uint8, c float64, raw []byte, mode uint8) Problem {
	m := min(int(n)%71, len(raw)/32)
	p := Problem{C: math.Abs(fold(c)), D: mathx.NewVector(m), G: mathx.NewVector(m), Lo: mathx.NewVector(m), Hi: mathx.NewVector(m)}
	f := func(i int) float64 { return fold(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))) }
	for i := 0; i < m; i++ {
		p.D[i], p.G[i], p.Lo[i], p.Hi[i] = math.Abs(f(4*i)), f(4*i+1), f(4*i+2), f(4*i+3)
		if p.Lo[i] > p.Hi[i] {
			p.Lo[i], p.Hi[i] = p.Hi[i], p.Lo[i]
		}
	}
	switch mode % 4 {
	case 1:
		copy(p.Hi, p.Lo)
	case 2, 3:
		var sumAbs float64
		for i := range p.Lo {
			sumAbs += math.Max(math.Abs(p.Lo[i]), math.Abs(p.Hi[i]))
		}
		for i := range p.G {
			p.G[i] = 1 + p.D[i]*math.Max(math.Abs(p.Lo[i]), math.Abs(p.Hi[i])) + p.C*sumAbs + math.Abs(p.G[i])
			if mode%4 == 3 {
				p.G[i] = -p.G[i]
			}
		}
	}
	return p
}

// encodeBoxQP is decodeBoxQP's inverse for values fold leaves alone, for
// seeding.
func encodeBoxQP(p Problem) []byte {
	raw := make([]byte, 0, 32*len(p.D))
	for i := range p.D {
		for _, v := range []float64{p.D[i], p.G[i], p.Lo[i], p.Hi[i]} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// safeguardCases are small problems on which Newton steps leave the
// bracket, so the search takes breakpoint steps; the first ends at the
// midpoint of a bracket with no breakpoint inside, the second at a Newton
// fixed point. Both are pinned by TestSolveSafeguardedSearch and seed
// FuzzBoxQP.
var safeguardCases = []struct {
	p      Problem
	sweeps int
}{
	{Problem{C: 9, D: mathx.Vector{0.25, 2.25, 0.5}, G: mathx.Vector{-20, -16, -9}, Lo: mathx.Vector{0, -0.5, -2}, Hi: mathx.Vector{1, 0.5, 1.5}}, 6},
	{Problem{C: 6, D: mathx.Vector{0.5, 1.25, 0.5, 2}, G: mathx.Vector{-5, 10, 5, 10}, Lo: mathx.Vector{-1, -1, -2, -2}, Hi: mathx.Vector{0, 1.5, 0.5, 0}}, 4},
}

// checkBoxQP solves p and holds the result to Solve's contract: an error
// exactly for a problem Validate rejects or one whose H is too
// ill-conditioned, no more σ steps than stepBound(n), and, when every
// input is finite, a minimizer in the box that agrees with the dense
// reference within the oracle's δ and whose KKT residual, with the dense
// gradient, is within the solver's tolerance plus the rounding floor of
// evaluating that gradient.
func checkBoxQP(t *testing.T, p Problem) Result {
	t.Helper()
	n := len(p.G)
	r, err := Solve(p, nil)
	if verr := p.Validate(); verr != nil || err != nil {
		if verr == nil && !errors.Is(err, ErrNotConvex) || verr != nil && err == nil {
			t.Fatalf("n=%d: Validate = %v, Solve = %v", n, verr, err)
		}
		return r
	}
	if r.Sweeps > stepBound(n) {
		t.Fatalf("n=%d: %d sweeps, above the bound %d", n, r.Sweeps, stepBound(n))
	}
	for _, v := range [][]float64{p.D, p.G, p.Lo, p.Hi, {p.C}} {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return r
			}
		}
	}
	for i, x := range r.X {
		if !(p.Lo[i] <= x && x <= p.Hi[i]) {
			t.Fatalf("n=%d: x[%d] = %v outside [%v, %v]", n, i, x, p.Lo[i], p.Hi[i])
		}
	}
	h := denseH(p)
	var sumAbs, maxDX float64
	minD, maxD := math.Inf(1), 0.0
	for i, x := range r.X {
		sumAbs += math.Abs(x)
		maxDX = math.Max(maxDX, math.Abs(p.D[i]*x))
		minD, maxD = math.Min(minD, p.D[i]), math.Max(maxD, p.D[i])
	}
	tol := defaultTol*(1+p.G.NormInf()) + 32*float64(n+2)*epsilon*(p.C*sumAbs+maxDX+p.G.NormInf())
	if kkt := denseKKT(p, h, r.X); !(kkt <= tol) {
		t.Fatalf("n=%d: KKT residual %g > %g", n, kkt, tol)
	}
	want, ok := denseSolve(h, p.G, p.Lo, p.Hi)
	if !ok {
		return r
	}
	delta := 16 * float64(n) * (maxD + p.C*float64(n)) / minD * epsilon * (1 + want.NormInf())
	for i := range want {
		if d := math.Abs(r.X[i] - want[i]); !(d <= delta) {
			t.Fatalf("n=%d: x[%d] = %v, dense %v, |Δ| %g > δ %g", n, i, r.X[i], want[i], d, delta)
		}
	}
	return r
}

// The search's safeguard: on problems where a Newton step leaves the
// bracket, the breakpoint steps and the closing midpoint step reach the
// minimizer in the pinned number of steps.
func TestSolveSafeguardedSearch(t *testing.T) {
	for i, c := range safeguardCases {
		if r := checkBoxQP(t, c.p); r.Sweeps != c.sweeps || !r.Converged {
			t.Fatalf("case %d: %d sweeps, converged %v; want %d, converged", i, r.Sweeps, r.Converged, c.sweeps)
		}
	}
}

// FuzzBoxQP decodes problems with n ≤ 70 from raw float bits
// (decodeBoxQP) and holds Solve to checkBoxQP's contract. The seeds cover
// n = 1, the safeguard cases, MPC-shaped problems with and without locked
// cores, and the all-locked, all-at-lo and all-at-hi modes.
func FuzzBoxQP(f *testing.F) {
	for _, c := range safeguardCases {
		f.Add(uint8(len(c.p.G)), c.p.C, encodeBoxQP(c.p), uint8(0))
	}
	rng := rand.New(rand.NewSource(70))
	for i, n := range []int{1, 2, 7, 16, 64, 70} {
		p := newMPCShape(rng, n, 0.2, 0.2*float64(i%2)).problem(rng, farOutside)
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(uint8(n), p.C, encodeBoxQP(p), mode)
		}
	}
	f.Fuzz(func(t *testing.T, n uint8, c float64, raw []byte, mode uint8) {
		checkBoxQP(t, decodeBoxQP(n, c, raw, mode))
	})
}

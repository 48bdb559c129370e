// Package qp solves the box-constrained quadratic program of SprintCon's
// model-predictive server power controller (paper Eq. 8–9):
//
//	minimize   ½·xᵀHx + gᵀx
//	subject to lo ≤ x ≤ hi   (element-wise)
//
// over H = diag(D) + C·11ᵀ with every D[i] > 0 and C ≥ 0. Every MPC
// formulation in this repository has that Hessian: all batch cores share
// one model slope, so the tracking term couples every pair of cores by the
// same C, and the control penalty adds D on the diagonal.
//
// For this H the minimizer is a function of one scalar. With σ = Σx,
// coordinate i minimizes ½·D[i]·x[i]² + (g[i] + C·σ)·x[i] over its box, so
//
//	x[i](σ) = clip((−g[i] − C·σ)/D[i], lo[i], hi[i]),
//
// and the optimal σ is the root of ψ(σ) = Σ x[i](σ) − σ. ψ is piecewise
// linear with a breakpoint wherever a coordinate meets a bound, and
// strictly decreasing, so the root is unique: this is the continuous
// quadratic knapsack equation, which a safeguarded Newton search solves in
// a few O(n) passes (Cominetti, Mascarenhas & Silva, Math. Prog. Comp. 6,
// 2014). Solve is that search followed by one Sherman–Morrison solve of the
// free coordinates (mathx.EqualOffDiagSolve), and it is the package's only
// solver: no iteration seed, fallback or dense form.
package qp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"sprintcon/internal/mathx"
)

// Problem describes a box-constrained quadratic program over the cost
// matrix H = diag(D) + C·11ᵀ: H_ij = C for i ≠ j and H_ii = C + D[i].
type Problem struct {
	C  float64      // off-diagonal entry of H, ≥ 0 (cost per unit²)
	D  mathx.Vector // H_ii − C, each > 0 (cost per unit²)
	G  mathx.Vector // linear cost term (cost per unit)
	Lo mathx.Vector // element-wise lower bounds (decision-variable units, e.g. GHz)
	Hi mathx.Vector // element-wise upper bounds (decision-variable units, e.g. GHz)
}

// Result reports the solution of a Problem.
type Result struct {
	X mathx.Vector // minimizer (aliases workspace memory)
	// Sweeps counts σ steps: O(n) evaluations of ψ, the first at the
	// all-free σ. 1 when that σ is the root (the box is inactive, or only
	// locked coordinates meet it).
	Sweeps    int
	Converged bool // KKT residual below tolerance
}

// Workspace holds the scratch buffers of one solver instance, so that a
// solve performs no heap allocation. Result.X aliases workspace memory
// that the next Solve with the same workspace overwrites (copy it if it
// must outlive the next call). Workspaces are not safe for concurrent use.
type Workspace struct {
	x mathx.Vector
	// w[i] = 1/D[i], u[i] = −g[i]·w[i] and v[i] = C·w[i], so that
	// x[i](σ) before clipping is u[i] − σ·v[i].
	w, u, v []float64
	// bp holds the sorted breakpoints once the safeguard first needs them.
	bp []float64
	// free lists the coordinates strictly inside their box at the last σ;
	// wF and bF are the free block's reciprocals and right-hand side.
	free   []int
	wF, bF []float64
}

// NewWorkspace returns a workspace for n-variable problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure (re)sizes the buffers for an n-variable problem.
func (w *Workspace) ensure(n int) {
	if len(w.x) != n {
		w.x = mathx.NewVector(n)
		w.w, w.u, w.v = make([]float64, n), make([]float64, n), make([]float64, n)
		w.bp = make([]float64, 0, 2*n)
		w.free = make([]int, 0, n)
		w.wF, w.bF = make([]float64, n), make([]float64, n)
	}
}

const defaultTol = 1e-9

var (
	// ErrDimension reports inconsistent problem dimensions.
	ErrDimension = errors.New("qp: inconsistent problem dimensions")
	// ErrBounds reports lo[i] > hi[i] for some i.
	ErrBounds = errors.New("qp: lower bound exceeds upper bound")
	// ErrNotConvex reports a D[i] ≤ 0, a C < 0 or a NaN in either, or an H
	// too ill-conditioned for the O(n) solve: a Sherman–Morrison
	// denominator 1 + C·Σ1/D[i] above the bound mathx.EqualOffDiagFactor
	// accepts.
	ErrNotConvex = errors.New("qp: H is not positive definite, or too ill-conditioned")
)

// Validate checks the problem for structural errors.
func (p Problem) Validate() error {
	n := len(p.G)
	if len(p.D) != n || len(p.Lo) != n || len(p.Hi) != n {
		return fmt.Errorf("%w: n=%d D=%d lo=%d hi=%d", ErrDimension, n, len(p.D), len(p.Lo), len(p.Hi))
	}
	if !(p.C >= 0) {
		return fmt.Errorf("%w: C = %g", ErrNotConvex, p.C)
	}
	for i := 0; i < n; i++ {
		if p.Lo[i] > p.Hi[i] {
			return fmt.Errorf("%w: index %d (%g > %g)", ErrBounds, i, p.Lo[i], p.Hi[i])
		}
		if !(p.D[i] > 0) {
			return fmt.Errorf("%w: D[%d] = %g", ErrNotConvex, i, p.D[i])
		}
	}
	return nil
}

// Solve minimizes the problem, in ws when it is non-nil and in a fresh
// workspace otherwise; the returned Result is valid even when Converged is
// false. An error is returned only for a problem Validate rejects or whose
// H is too ill-conditioned (ErrNotConvex).
//
// The search runs Newton's method on ψ(σ) = Σ x[i](σ) − σ from the
// all-free σ, the root of ψ when no coordinate but the locked ones
// (lo = hi) meets its bound. On the segment of σ, where every coordinate
// keeps its side, ψ(σ) = S − σ·(1 + C·W), with S the sum of the bound
// coordinates' values and of u[i] = −g[i]/D[i] over the free ones and W the
// sum of 1/D[i] over the free ones, so the Newton step goes to
// S/(1 + C·W), the root of that line. A bracket [lo, hi] of the root is
// kept from the signs of ψ. When a Newton step would leave it, the next σ
// is instead the middle of the breakpoints strictly inside the bracket, or
// its midpoint when none is left; the 2n breakpoints are sorted the first
// time that happens. The search stops when the Newton step returns the σ
// it started from (it stayed in its segment, so the σ is the root of ψ to
// rounding), or after the σ taken at the midpoint of a bracket with no
// breakpoint inside, whose one segment holds the root.
//
// The step count is bounded by 2n + ⌊log₂(2n)⌋ + 4. A Newton step depends
// only on which side of its bounds each coordinate is, and that side
// changes at most twice per coordinate as σ grows, so at most 2n + 1
// distinct Newton steps exist; none is taken twice, because the σ it
// reaches becomes an end of the bracket. Each breakpoint step at least
// halves the breakpoints inside the bracket, so at most ⌊log₂(2n)⌋ + 1 of
// them come before the midpoint step, which is the last. On the package's
// MPC-shaped test problems the search takes 1 step when the box is
// inactive and at most 8 otherwise.
//
// Computing x from the final σ alone is not accurate enough: one ulp of σ
// moves Σx by 1 + C·W ulps, and 1 + C·W reaches 10¹⁰ on racks whose
// penalties sit at their floor. So the minimizer is found in x: the free
// coordinates of the final σ solve their block of H·x = −g, with the bound
// coordinates at their bounds, by mathx.EqualOffDiagSolve, whose
// refinement step makes Σx consistent, and are then clipped to the box.
func Solve(p Problem, ws *Workspace) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.G)
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.ensure(n)
	if n == 0 {
		return Result{X: ws.x, Converged: true}, nil
	}
	if _, ok := mathx.EqualOffDiagFactor(p.C, p.D, ws.w); !ok {
		return Result{}, fmt.Errorf("%w: 1 + C·Σ1/D out of range", ErrNotConvex)
	}
	// The all-free σ: the Newton step from the classification with every
	// unlocked coordinate free and every locked one at its bound, summed
	// as eval sums, so that eval at this σ returns it when it is the root.
	var sL, sU, w0 float64
	for i, wi := range ws.w {
		ws.u[i] = float64(-p.G[i] * wi)
		ws.v[i] = float64(p.C * wi)
		if p.Lo[i] < p.Hi[i] {
			sU += ws.u[i]
			w0 += wi
		} else {
			sL += p.Lo[i]
		}
	}
	sigma := (sL + sU) / (1 + float64(p.C*w0))

	lo, hi := math.Inf(-1), math.Inf(1)
	sorted, last := false, false
	var steps int
	var sB float64
	for {
		steps++
		var s, wf float64
		sB, s, wf = ws.eval(p, sigma)
		den := 1 + float64(p.C*wf)
		next := s / den
		if last || next == sigma {
			break
		}
		if s-float64(sigma*den) > 0 { // ψ(σ) > 0: the root lies above σ
			lo = sigma
		} else {
			hi = sigma
		}
		if lo < next && next < hi {
			sigma = next
			continue
		}
		if !sorted {
			ws.breakpoints(p)
			sorted = true
		}
		if mid, ok := middleBreakpoint(ws.bp, lo, hi); ok {
			sigma = mid
			continue
		}
		sigma, last = lo/2+hi/2, true
	}
	ws.finish(p, sB)
	mathx.EqualOffDiagMulVec(ws.bF, p.C, p.D, ws.x)
	return Result{X: ws.x, Sweeps: steps, Converged: p.residual(ws.x, ws.bF) <= defaultTol*(1+p.G.NormInf())}, nil
}

// eval classifies every coordinate at σ: it writes a bound coordinate's
// value to x and lists the free ones in ws.free. It returns the sum sB of
// the bound values, S = sB + Σ_free u[i] and W = Σ_free w[i].
func (ws *Workspace) eval(p Problem, sigma float64) (sB, s, wf float64) {
	ws.free = ws.free[:0]
	var sU float64
	for i, ui := range ws.u {
		raw := ui - float64(sigma*ws.v[i])
		switch {
		case raw >= p.Hi[i]:
			ws.x[i] = p.Hi[i]
		case raw <= p.Lo[i]:
			ws.x[i] = p.Lo[i]
		default:
			ws.free = append(ws.free, i)
			sU += ui
			wf += ws.w[i]
			continue
		}
		sB += ws.x[i]
	}
	return sB, sB + sU, wf
}

// breakpoints fills ws.bp with the σ at which each unlocked coordinate
// meets its upper bound ((u[i] − hi[i])/v[i]) and its lower bound, sorted.
func (ws *Workspace) breakpoints(p Problem) {
	ws.bp = ws.bp[:0]
	for i, ui := range ws.u {
		if p.Lo[i] < p.Hi[i] {
			ws.bp = append(ws.bp, (ui-p.Hi[i])/ws.v[i], (ui-p.Lo[i])/ws.v[i])
		}
	}
	slices.Sort(ws.bp)
}

// middleBreakpoint returns the middle one of the sorted breakpoints that
// lie strictly between lo and hi, and false when there is none.
func middleBreakpoint(bp []float64, lo, hi float64) (float64, bool) {
	i0 := sort.Search(len(bp), func(i int) bool { return bp[i] > lo })
	i1 := sort.Search(len(bp), func(i int) bool { return bp[i] >= hi })
	if i0 >= i1 {
		return 0, false
	}
	return bp[i0+(i1-i0-1)/2], true
}

// finish solves the free coordinates of the last eval for their block of
// H·x = −g, given the sum sB of the bound coordinates, and clips them to
// the box: (diag(D_F) + C·11ᵀ)·x_F = −g_F − C·sB.
func (ws *Workspace) finish(p Problem, sB float64) {
	m := len(ws.free)
	if m == 0 {
		return
	}
	wF, bF := ws.wF[:m], ws.bF[:m]
	cB := float64(p.C * sB)
	var sumW float64
	for a, i := range ws.free {
		wF[a] = ws.w[i]
		bF[a] = -p.G[i] - cB
		sumW += wF[a]
	}
	mathx.EqualOffDiagSolve(p.C, 1+float64(p.C*sumW), wF, bF)
	for a, i := range ws.free {
		ws.x[i] = math.Min(math.Max(bF[a], p.Lo[i]), p.Hi[i])
	}
}

// residual returns the KKT residual at x, given hx = H·x: the largest
// violation of the first-order conditions with gradient Hx + g. At a lower
// bound the gradient may be positive, at an upper bound negative, in the
// interior it must vanish, and a fixed coordinate (lo = hi, a locked core)
// is optimal whatever its gradient.
func (p Problem) residual(x mathx.Vector, hx []float64) float64 {
	var r float64
	for i, xi := range x {
		gi := hx[i] + p.G[i]
		var v float64
		switch {
		case p.Lo[i] >= p.Hi[i]:
			continue
		case xi <= p.Lo[i]:
			v = math.Max(0, -gi) // must be ≥ 0 to be optimal
		case xi >= p.Hi[i]:
			v = math.Max(0, gi) // must be ≤ 0 to be optimal
		default:
			v = math.Abs(gi)
		}
		if v > r {
			r = v
		}
	}
	return r
}

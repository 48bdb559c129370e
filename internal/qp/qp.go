// Package qp solves the box-constrained convex quadratic programs that arise
// from SprintCon's model-predictive server power controller (paper Eq. 8–9):
//
//	minimize   ½·xᵀHx + gᵀx
//	subject to lo ≤ x ≤ hi   (element-wise)
//
// H must be symmetric positive definite (the MPC cost is strictly convex
// because the control-penalty weights are strictly positive). The solver
// first tries the unconstrained Cholesky solution; if it violates the box it
// runs a primal active-set Newton method (one small Cholesky factorization
// of the free block per working-set change) whose working set is
// initialized from the seed's bound pattern, falling back to cyclic
// projected coordinate descent — which converges to the unique minimizer
// for strictly convex quadratics — only on numerically degenerate problems.
// Problem sizes here are at most a few hundred variables (one per batch CPU
// core on the rack).
//
// H comes in one of two forms, and the solver runs one algorithm on both:
//
//   - Problem.H, a dense matrix, factored and solved by the mathx kernels
//     CholeskyFactor and CholeskySolve;
//   - Problem.EqualOffDiag, H = diag(D) + C·11ᵀ — the constant-move MPC
//     Hessian when every core shares one model slope. Its Sherman–Morrison
//     kernels (mathx.EqualOffDiagFactor, EqualOffDiagSolve,
//     EqualOffDiagMulVec) run in O(n) without an n×n buffer, and so does
//     every factorization of a free block, which has the same form. They
//     agree with the dense kernels on the assembled matrix to rounding, not
//     bit for bit.
//
// Two options serve the per-control-period hot path:
//
//   - Options.Warm seeds the solver with the previous period's solution
//     (the MPC re-solves a nearly identical QP every period, so the
//     previous minimizer — and, more importantly, its active bound set —
//     is almost exactly right for the new problem); without it the seed is
//     the projection of 0;
//   - Options.Ws supplies a reusable Workspace so a steady-state solve
//     performs no heap allocation at all; without it each solve allocates
//     a fresh one.
package qp

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/mathx"
)

// Problem describes a box-constrained quadratic program. Exactly one of H
// and EqualOffDiag describes the cost matrix.
type Problem struct {
	H *mathx.Matrix // symmetric positive definite cost matrix (units: cost per unit²)
	// EqualOffDiag, when non-nil, is the cost matrix instead of H.
	EqualOffDiag *EqualOffDiag
	G            mathx.Vector // linear cost term (units: cost per unit)
	Lo           mathx.Vector // element-wise lower bounds (decision-variable units, e.g. GHz)
	Hi           mathx.Vector // element-wise upper bounds (decision-variable units, e.g. GHz)
}

// EqualOffDiag describes the cost matrix H = diag(D) + C·11ᵀ: H_ij = C for
// i ≠ j and H_ii = C + D[i].
type EqualOffDiag struct {
	C float64
	D mathx.Vector
}

// Options controls solver effort and, via Warm and Ws, the hot-path
// accelerations. The zero value is a cold solve on a fresh workspace.
type Options struct {
	// MaxSweeps bounds the number of full coordinate-descent sweeps of the
	// degenerate-problem fallback. Zero selects the default (500).
	MaxSweeps int
	// Warm, when non-nil, seeds the solver with this point (projected
	// into the box) instead of the projection of 0. The unconstrained
	// Cholesky shortcut still runs first — when the box is inactive it is
	// exact and beats any iteration — so the warm point matters for
	// box-constrained solves, where its bound pattern initializes the
	// active-set solver's working set and typically saves all but O(1)
	// iterations. Warm must have the problem's dimension; it is read,
	// never written.
	Warm mathx.Vector
	// Ws, when non-nil, provides preallocated scratch so the solve
	// performs no heap allocation; Result.X then aliases workspace memory
	// that the next Solve with the same workspace overwrites (copy it if
	// it must outlive the next call). Workspaces are not safe for
	// concurrent use.
	Ws *Workspace
}

// Result reports the solution of a Problem.
type Result struct {
	X         mathx.Vector // minimizer (aliases Options.Ws scratch when set)
	Objective float64      // ½xᵀHx + gᵀx at X
	// Sweeps counts solver iterations: active-set Newton iterations (one
	// free-block factorization each) plus any coordinate-descent sweeps of
	// the fallback. 0 when the unconstrained Cholesky shortcut solved the
	// problem outright.
	Sweeps    int
	Converged bool // KKT residual below tolerance
}

// Workspace holds the scratch buffers of one solver instance. Reusing a
// Workspace across Solve calls eliminates every steady-state allocation of
// the hot path; see Options.Ws for the aliasing contract.
type Workspace struct {
	x, grad, scratch mathx.Vector
	// Factorization scratch: the unconstrained shortcut factors all of H,
	// and the active-set solver its free-variable subproblem
	// H_FF·d = −g_F, with subB as the right-hand side / solution. A dense
	// H's m×m block is factored in subH (row-major, packed into the first
	// m² entries), which is allocated by the first dense factorization; an
	// EqualOffDiag H's factor is the reciprocals of the block's D, in
	// subW, and the Sherman–Morrison denominator subDen.
	free   []int
	pinned []bool
	subH   []float64
	subW   []float64
	subDen float64
	subB   []float64
}

// NewWorkspace returns a workspace for n-variable problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure (re)sizes the buffers for an n-variable problem. The dense factor
// buffer is left to the first dense factorization (Problem.factor).
func (w *Workspace) ensure(n int) {
	if len(w.x) != n {
		w.x = mathx.NewVector(n)
		w.grad = mathx.NewVector(n)
		w.scratch = mathx.NewVector(n)
		w.free = make([]int, 0, n)
		w.pinned = make([]bool, n)
		w.subH = nil
		w.subW = make([]float64, n)
		w.subB = make([]float64, n)
	}
}

const (
	defaultMaxSweeps = 500
	defaultTol       = 1e-9
)

var (
	// ErrDimension reports inconsistent problem dimensions, or a cost
	// matrix given in neither or both of the two forms.
	ErrDimension = errors.New("qp: inconsistent problem dimensions")
	// ErrBounds reports lo[i] > hi[i] for some i.
	ErrBounds = errors.New("qp: lower bound exceeds upper bound")
	// ErrNotConvex reports a non-positive diagonal element of H.
	ErrNotConvex = errors.New("qp: H has a non-positive diagonal element")
)

// Validate checks the problem for structural errors.
func (p Problem) Validate() error {
	n, e := len(p.G), p.EqualOffDiag
	if (p.H == nil) == (e == nil) {
		return fmt.Errorf("%w: set exactly one of H and EqualOffDiag", ErrDimension)
	}
	if e != nil && len(e.D) != n || p.H != nil && (p.H.Rows() != n || p.H.Cols() != n) ||
		len(p.Lo) != n || len(p.Hi) != n {
		return fmt.Errorf("%w: n=%d lo=%d hi=%d, or H is not n×n", ErrDimension, n, len(p.Lo), len(p.Hi))
	}
	for i := 0; i < n; i++ {
		if p.Lo[i] > p.Hi[i] {
			return fmt.Errorf("%w: index %d (%g > %g)", ErrBounds, i, p.Lo[i], p.Hi[i])
		}
		if h := p.diag(i); h <= 0 {
			return fmt.Errorf("%w: index %d (%g)", ErrNotConvex, i, h)
		}
	}
	return nil
}

// diag returns H_ii.
func (p Problem) diag(i int) float64 {
	if e := p.EqualOffDiag; e != nil {
		return e.C + e.D[i]
	}
	return p.H.At(i, i)
}

// mulVecInto computes dst = H·x without allocating and returns dst.
func (p Problem) mulVecInto(dst, x mathx.Vector) mathx.Vector {
	if e := p.EqualOffDiag; e != nil {
		mathx.EqualOffDiagMulVec(dst, e.C, e.D, x)
		return dst
	}
	return p.H.MulVecInto(dst, x)
}

// objectiveWith evaluates the objective using scratch for H·x (no allocation).
func (p Problem) objectiveWith(x, scratch mathx.Vector) float64 {
	hx := p.mulVecInto(scratch, x)
	return 0.5*x.Dot(hx) + p.G.Dot(x)
}

// gradientInto evaluates dst = Hx + g without allocating.
func (p Problem) gradientInto(dst, x mathx.Vector) mathx.Vector {
	p.mulVecInto(dst, x)
	dst.AXPY(1, p.G)
	return dst
}

// factor factors H's principal block on the ascending index set idx into
// ws, for solveFactored. It reports false when the block is not
// numerically positive definite or holds a NaN.
func (p Problem) factor(ws *Workspace, idx []int) bool {
	m := len(idx)
	if e := p.EqualOffDiag; e != nil {
		w := ws.subW[:m]
		for a, i := range idx {
			w[a] = e.D[i]
		}
		var ok bool
		ws.subDen, ok = mathx.EqualOffDiagFactor(e.C, w, w)
		return ok
	}
	if n := len(ws.x); len(ws.subH) < n*n {
		ws.subH = make([]float64, n*n)
	}
	sub := ws.subH[:m*m]
	for a, i := range idx {
		row := p.H.Row(i)
		for b, j := range idx[:a+1] {
			sub[a*m+b] = row[j]
		}
	}
	// A NaN pivot spreads to the last one, so testing that one rejects
	// NaN anywhere in the block.
	return mathx.CholeskyFactor(sub, m) < 0 && !math.IsNaN(sub[m*m-1])
}

// solveFactored overwrites b with the solution of H_FF·x = b, given the
// factor the last factor call left in ws for a block of size len(b).
func (p Problem) solveFactored(ws *Workspace, b []float64) {
	m := len(b)
	if p.EqualOffDiag != nil {
		mathx.EqualOffDiagSolve(p.EqualOffDiag.C, ws.subDen, ws.subW[:m], b)
		return
	}
	mathx.CholeskySolve(ws.subH[:m*m], b, m)
}

// residualAt evaluates the KKT residual at x given grad = Hx + g. A fixed
// coordinate (lo = hi, a locked core) is optimal whatever its gradient.
func (p Problem) residualAt(x, grad mathx.Vector) float64 {
	var r float64
	for i, gi := range grad {
		var v float64
		switch {
		case p.Lo[i] >= p.Hi[i]:
			continue
		case x[i] <= p.Lo[i]:
			v = math.Max(0, -gi) // must be ≥ 0 to be optimal
		case x[i] >= p.Hi[i]:
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

// Solve minimizes the problem. The returned Result is valid even when
// Converged is false (best iterate so far); an error is returned only for
// structurally invalid problems.
func Solve(p Problem, opt Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = defaultMaxSweeps
	}
	// The KKT residual tolerance, scaled to the problem so watts-sized and
	// gigahertz-sized formulations behave alike.
	scale := 1 + p.G.NormInf()
	tol := defaultTol * scale

	n := len(p.G)
	if n == 0 {
		return Result{X: mathx.Vector{}, Converged: true}, nil
	}
	if len(opt.Warm) != 0 && len(opt.Warm) != n {
		return Result{}, fmt.Errorf("%w: warm start has %d elements for n=%d", ErrDimension, len(opt.Warm), n)
	}
	return solveFast(p, opt, maxSweeps, tol)
}

// solveFast is the solver behind Solve: allocation-free with a workspace,
// optionally warm-started, converging on the incrementally maintained
// gradient with an exact verification before any solution is accepted.
func solveFast(p Problem, opt Options, maxSweeps int, tol float64) (Result, error) {
	n := len(p.G)
	ws := opt.Ws
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.ensure(n)
	x := ws.x

	// The unconstrained Cholesky shortcut is the best opening move even
	// with a warm point: when the box is inactive it is exact in one
	// factorization, while coordinate descent on the rank-one-coupled MPC
	// Hessian can need hundreds of O(n²) sweeps.
	if unconstrainedInBox(p, ws) {
		x.Clamp(p.Lo, p.Hi)
		return Result{X: x, Objective: p.objectiveWith(x, ws.scratch), Converged: true}, nil
	}
	// Box-constrained: run the primal active-set solver, seeded from the
	// warm point when given (its bound pattern is near the optimal active
	// set on a re-solve), else from the projection of 0.
	if len(opt.Warm) != 0 {
		copy(x, opt.Warm)
		x.Clamp(p.Lo, p.Hi)
	} else {
		for i := range x {
			x[i] = math.Min(math.Max(0, p.Lo[i]), p.Hi[i])
		}
	}

	res, asIters, ok := solveActiveSet(p, ws, x, tol)
	if ok {
		return res, nil
	}

	// Robustness fallback: projected coordinate descent from wherever the
	// active-set solver stopped (it never moves x uphill, so the iterate
	// is a valid descent seed). This path only runs on numerically
	// degenerate problems the factorization cannot handle.
	grad := p.gradientInto(ws.grad, x)
	sweeps := 0
	for ; sweeps < maxSweeps; sweeps++ {
		maxMove := sweepOnce(p, x, grad)
		// Cheap O(n) convergence test on the maintained gradient; only
		// when it passes do we pay the O(n²) exact recomputation, which
		// both confirms optimality and resets any incremental drift.
		if p.residualAt(x, grad) <= tol {
			grad = p.gradientInto(ws.grad, x)
			if p.residualAt(x, grad) <= tol {
				return Result{X: x, Objective: p.objectiveWith(x, ws.scratch), Sweeps: asIters + sweeps + 1, Converged: true}, nil
			}
		}
		if maxMove == 0 {
			break // stationary but KKT above tol: numerical floor reached
		}
	}
	grad = p.gradientInto(ws.grad, x)
	return Result{
		X:         x,
		Objective: p.objectiveWith(x, ws.scratch),
		Sweeps:    asIters + sweeps,
		Converged: p.residualAt(x, grad) <= tol*10,
	}, nil
}

// boxSlack is how far outside the box the unconstrained shortcut's solution
// may land and still be accepted (then clamped) as the minimizer.
const boxSlack = 1e-12

// unconstrainedInBox runs the unconstrained shortcut: it solves H·x = −g by
// a Cholesky factorization of all of H, writing the solution to ws.x, and
// reports whether it lies within boxSlack of the box. It reports false when
// H is not numerically positive definite.
func unconstrainedInBox(p Problem, ws *Workspace) bool {
	all := ws.free[:len(p.G)]
	for i := range all {
		all[i] = i
	}
	if !p.factor(ws, all) {
		return false
	}
	x := ws.x
	for i := range x {
		x[i] = -p.G[i]
	}
	p.solveFactored(ws, x)
	for i := range x {
		if x[i] < p.Lo[i]-boxSlack || x[i] > p.Hi[i]+boxSlack {
			return false
		}
	}
	return true
}

// activeSetIterCap bounds primal active-set iterations for an n-variable
// problem. In the non-degenerate case the solver needs at most one
// iteration per active-set change plus one final full step, so 3n+16 is
// generous; hitting the cap triggers the coordinate-descent fallback.
func activeSetIterCap(n int) int { return 3*n + 16 }

// solveActiveSet minimizes the box-constrained QP by primal active-set
// Newton iterations starting from the feasible seed in x (modified in
// place). Each iteration factors the free-variable block H_FF and takes
// the Newton step −H_FF⁻¹·g_F, truncated at the first blocking bound
// (which joins the working set); after a full step, the pinned coordinate
// with the most negative Lagrange multiplier is released. The working set
// is initialized from the seed's bound pattern, which is why a warm start
// converges in O(1) iterations: the previous period's solution already
// pins (almost) the right coordinates.
//
// Returns ok=false — with the number of iterations spent — when the
// subproblem factorization fails or the iteration cap is hit; x then holds
// the best iterate for the caller's fallback.
func solveActiveSet(p Problem, ws *Workspace, x mathx.Vector, tol float64) (Result, int, bool) {
	n := len(x)
	pin := ws.pinned
	for i := 0; i < n; i++ {
		pin[i] = x[i] <= p.Lo[i] || x[i] >= p.Hi[i]
	}
	grad := ws.grad
	// released is set when the last iteration only released a bound: x
	// did not move, so grad still holds Hx + g at x.
	released := false
	for iter := 0; iter < activeSetIterCap(n); iter++ {
		if !released {
			p.gradientInto(grad, x)
		}
		released = false
		if p.residualAt(x, grad) <= tol {
			return Result{X: x, Objective: p.objectiveWith(x, ws.scratch), Sweeps: iter, Converged: true}, iter, true
		}

		free := ws.free[:0]
		for i := 0; i < n; i++ {
			if !pin[i] {
				free = append(free, i)
			}
		}
		m := len(free)
		blocked := false
		if m > 0 {
			if !p.factor(ws, free) {
				return Result{}, iter, false // not SPD on the free block: fall back
			}
			subB := ws.subB[:m]
			for a, i := range free {
				subB[a] = -grad[i]
			}
			p.solveFactored(ws, subB)
			// Truncate the Newton step at the first bound crossing.
			alpha, blk, blkAt := 1.0, -1, 0.0
			for a, i := range free {
				d := subB[a]
				if d > 0 && x[i]+d > p.Hi[i] {
					if s := (p.Hi[i] - x[i]) / d; s < alpha {
						alpha, blk, blkAt = s, i, p.Hi[i]
					}
				} else if d < 0 && x[i]+d < p.Lo[i] {
					if s := (p.Lo[i] - x[i]) / d; s < alpha {
						alpha, blk, blkAt = s, i, p.Lo[i]
					}
				}
			}
			for a, i := range free {
				xi := x[i] + alpha*subB[a]
				if xi < p.Lo[i] {
					xi = p.Lo[i]
				} else if xi > p.Hi[i] {
					xi = p.Hi[i]
				}
				x[i] = xi
			}
			if blk >= 0 {
				x[blk] = blkAt // land exactly on the blocking bound
				pin[blk] = true
				blocked = true
			}
		}
		if blocked {
			continue
		}
		// Full step taken (the free block is at its equality-constrained
		// optimum): release the pinned coordinate whose multiplier says
		// the bound is not binding. Releasing only after a full step is
		// what prevents active-set cycling.
		p.gradientInto(grad, x)
		worst, worstI := tol, -1
		for i := 0; i < n; i++ {
			if !pin[i] || p.Lo[i] >= p.Hi[i] {
				continue
			}
			var v float64
			if x[i] <= p.Lo[i] {
				v = -grad[i] // at lower bound, optimality needs grad ≥ 0
			} else {
				v = grad[i] // at upper bound, optimality needs grad ≤ 0
			}
			if v > worst {
				worst, worstI = v, i
			}
		}
		if worstI < 0 {
			// All multipliers optimal and the free gradient vanished by
			// construction; confirm with the exact residual.
			if p.residualAt(x, grad) <= tol {
				return Result{X: x, Objective: p.objectiveWith(x, ws.scratch), Sweeps: iter + 1, Converged: true}, iter + 1, true
			}
			return Result{}, iter + 1, false // residual floor: fall back
		}
		pin[worstI] = false
		released = true
	}
	return Result{}, activeSetIterCap(n), false
}

// sweepOnce performs one cyclic projected coordinate-descent sweep over x,
// maintaining grad = Hx + g incrementally, and returns the largest
// coordinate move of the sweep.
func sweepOnce(p Problem, x, grad mathx.Vector) float64 {
	var maxMove float64
	for i := range x {
		hii := p.diag(i)
		xi := x[i] - grad[i]/hii
		if xi < p.Lo[i] {
			xi = p.Lo[i]
		} else if xi > p.Hi[i] {
			xi = p.Hi[i]
		}
		d := xi - x[i]
		if d == 0 {
			continue
		}
		x[i] = xi
		// grad += d * H[:,i] (H symmetric, so use row i).
		if e := p.EqualOffDiag; e != nil {
			c := e.C
			for j := range grad[:i] {
				grad[j] += d * c
			}
			grad[i] += d * hii
			for j := i + 1; j < len(grad); j++ {
				grad[j] += d * c
			}
		} else {
			grad.AXPY(d, p.H.Row(i))
		}
		if a := math.Abs(d); a > maxMove {
			maxMove = a
		}
	}
	return maxMove
}

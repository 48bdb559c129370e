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
// Two optional accelerations serve the per-control-period hot path:
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

// Problem describes a box-constrained quadratic program.
type Problem struct {
	H  *mathx.Matrix // symmetric positive definite cost matrix (units: cost per unit²)
	G  mathx.Vector  // linear cost term (units: cost per unit)
	Lo mathx.Vector  // element-wise lower bounds (decision-variable units, e.g. GHz)
	Hi mathx.Vector  // element-wise upper bounds (decision-variable units, e.g. GHz)
}

// Options controls solver effort and, via Warm and Ws, the hot-path
// accelerations. The zero value is a cold solve on a fresh workspace.
type Options struct {
	// MaxSweeps bounds the number of full coordinate-descent sweeps of the
	// degenerate-problem fallback. Zero selects the default (500).
	MaxSweeps int
	// Tol is the KKT residual tolerance. Zero selects the default (1e-9,
	// scaled by the magnitude of the gradient).
	Tol float64
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
	// HGen, when non-zero, is the caller's generation tag for the contents
	// of H: the caller promises that two Solve calls on the same Workspace
	// carrying the same HGen saw bit-identical H matrices. Under that
	// promise the active-set solver caches the Cholesky factors of its
	// free-variable blocks across solves (keyed by generation and free
	// set), skipping the O(m³) refactorization when the working set
	// repeats — the common case for a re-solved MPC whose bound pattern is
	// stable. A reused factor is the bit-identical output of the identical
	// factorization, so solutions are unchanged. Zero disables the cache.
	HGen uint64
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
	y                mathx.Vector // triangular-solve intermediate
	chol             *mathx.Matrix
	// Active-set solver scratch: the free-variable subproblem H_FF·d = −g_F
	// is factored in place in subH (row-major, m×m packed into the first
	// m² entries), with subB as its right-hand side / solution.
	free   []int
	pinned []bool
	subH   []float64
	subB   []float64
	// Cholesky factor cache for the active-set subproblems (Options.HGen).
	factors factorCache
}

// CacheStats counts the factor cache's lifetime activity on one Workspace.
type CacheStats struct {
	Hits      uint64 // solves that reused a cached free-block factor
	Misses    uint64 // cache-enabled factorizations that ran fresh
	Evictions uint64 // entries displaced by the LRU policy
}

// FactorCacheStats returns the workspace's factor cache counters.
func (w *Workspace) FactorCacheStats() CacheStats { return w.factors.stats }

// factorCacheCap bounds the per-workspace factor cache. The MPC's working
// set alternates between a handful of bound patterns in steady state (fully
// free, batch floor pinned, a stuck core locked), so a small cache captures
// essentially all reuse while keeping lookup a trivial linear scan.
const factorCacheCap = 8

// factorEntry is one cached lower-triangular Cholesky factor of an m×m
// free-variable block, valid for the H generation it was computed under.
type factorEntry struct {
	hgen uint64
	free []int     // the free index set, defensively copied
	fac  []float64 // m×m row-major; lower triangle holds the factor
	used uint64    // LRU clock value of the last touch
}

// factorCache is a small exact-match LRU keyed by (HGen, free set). The key
// comparison is the full index-set equality, never a hash, so a hit can only
// return the factor of the exact matrix the caller would have factored.
type factorCache struct {
	entries []factorEntry
	n       int // entry buffers are pre-sized for n-variable problems
	clock   uint64
	stats   CacheStats
}

// grow pre-sizes every entry's key and factor buffers for n-variable
// problems and clears the cache if it was sized smaller. Pre-sizing makes
// insert allocation-free: while the active set re-converges after a
// disturbance it inserts a factor per candidate free set, and letting those
// inserts grow buffers on demand would put heap churn on the solver's
// steady-state path (and on the event engine's span-replanning ticks).
func (c *factorCache) grow(n int) {
	if n <= c.n {
		return
	}
	c.n = n
	c.entries = make([]factorEntry, 0, factorCacheCap)
	for i := 0; i < factorCacheCap; i++ {
		c.entries = append(c.entries, factorEntry{
			free: make([]int, 0, n),
			fac:  make([]float64, 0, n*n),
		})
	}
	c.entries = c.entries[:0]
}

// lookup returns the cached factor for (hgen, free), or nil.
func (c *factorCache) lookup(hgen uint64, free []int) []float64 {
	for i := range c.entries {
		e := &c.entries[i]
		if e.hgen != hgen || len(e.free) != len(free) {
			continue
		}
		match := true
		for j, f := range free {
			if e.free[j] != f {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		c.clock++
		e.used = c.clock
		c.stats.Hits++
		return e.fac
	}
	c.stats.Misses++
	return nil
}

// insert stores a copy of the m×m factor under (hgen, free), evicting the
// least-recently-used entry when the cache is full. Evicted entries donate
// their buffers, so a steady-state mix of repeating keys inserts nothing and
// allocates nothing.
func (c *factorCache) insert(hgen uint64, free []int, fac []float64) {
	var e *factorEntry
	if len(c.entries) < cap(c.entries) {
		// grow pre-sized the backing array: re-extend over an entry whose
		// buffers are already allocated at full capacity.
		c.entries = c.entries[:len(c.entries)+1]
		e = &c.entries[len(c.entries)-1]
	} else if len(c.entries) < factorCacheCap {
		c.entries = append(c.entries, factorEntry{})
		e = &c.entries[len(c.entries)-1]
	} else {
		e = &c.entries[0]
		for i := 1; i < len(c.entries); i++ {
			if c.entries[i].used < e.used {
				e = &c.entries[i]
			}
		}
		c.stats.Evictions++
	}
	e.hgen = hgen
	e.free = append(e.free[:0], free...)
	e.fac = append(e.fac[:0], fac...)
	c.clock++
	e.used = c.clock
}

// NewWorkspace returns a workspace for n-variable problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure (re)sizes the buffers for an n-variable problem.
func (w *Workspace) ensure(n int) {
	if len(w.x) == n && w.chol != nil {
		return
	}
	w.x = mathx.NewVector(n)
	w.grad = mathx.NewVector(n)
	w.scratch = mathx.NewVector(n)
	w.y = mathx.NewVector(n)
	w.chol = mathx.NewMatrix(n, n)
	w.free = make([]int, 0, n)
	w.pinned = make([]bool, n)
	w.subH = make([]float64, n*n)
	w.subB = make([]float64, n)
	w.factors.grow(n)
}

const (
	defaultMaxSweeps = 500
	defaultTol       = 1e-9
)

var (
	// ErrDimension reports inconsistent problem dimensions.
	ErrDimension = errors.New("qp: inconsistent problem dimensions")
	// ErrBounds reports lo[i] > hi[i] for some i.
	ErrBounds = errors.New("qp: lower bound exceeds upper bound")
	// ErrNotConvex reports a non-positive diagonal element of H.
	ErrNotConvex = errors.New("qp: H has a non-positive diagonal element")
)

// Validate checks the problem for structural errors.
func (p Problem) Validate() error {
	n := len(p.G)
	if p.H == nil || p.H.Rows() != n || p.H.Cols() != n || len(p.Lo) != n || len(p.Hi) != n {
		return fmt.Errorf("%w: n=%d H=%v lo=%d hi=%d", ErrDimension, n, shape(p.H), len(p.Lo), len(p.Hi))
	}
	for i := 0; i < n; i++ {
		if p.Lo[i] > p.Hi[i] {
			return fmt.Errorf("%w: index %d (%g > %g)", ErrBounds, i, p.Lo[i], p.Hi[i])
		}
		if p.H.At(i, i) <= 0 {
			return fmt.Errorf("%w: index %d (%g)", ErrNotConvex, i, p.H.At(i, i))
		}
	}
	return nil
}

func shape(m *mathx.Matrix) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("%dx%d", m.Rows(), m.Cols())
}

// Objective evaluates ½xᵀHx + gᵀx.
func (p Problem) Objective(x mathx.Vector) float64 {
	hx := p.H.MulVec(x)
	return 0.5*x.Dot(hx) + p.G.Dot(x)
}

// objectiveWith evaluates the objective using scratch for H·x (no allocation).
func (p Problem) objectiveWith(x, scratch mathx.Vector) float64 {
	hx := p.H.MulVecInto(scratch, x)
	return 0.5*x.Dot(hx) + p.G.Dot(x)
}

// Gradient evaluates Hx + g.
func (p Problem) Gradient(x mathx.Vector) mathx.Vector {
	grad := p.H.MulVec(x)
	grad.AXPY(1, p.G)
	return grad
}

// gradientInto evaluates dst = Hx + g without allocating.
func (p Problem) gradientInto(dst, x mathx.Vector) mathx.Vector {
	p.H.MulVecInto(dst, x)
	dst.AXPY(1, p.G)
	return dst
}

// KKTResidual returns the maximum violation of the first-order optimality
// conditions for the box-constrained problem at x: at a lower bound the
// gradient may be positive, at an upper bound negative, and in the interior
// it must vanish.
func (p Problem) KKTResidual(x mathx.Vector) float64 {
	return p.residualAt(x, p.Gradient(x))
}

// residualAt evaluates the KKT residual at x given grad = Hx + g.
func (p Problem) residualAt(x, grad mathx.Vector) float64 {
	var r float64
	for i, gi := range grad {
		var v float64
		switch {
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
	tol := opt.Tol
	if tol <= 0 {
		tol = defaultTol
	}
	// Scale the tolerance to the problem so watts-sized and
	// gigahertz-sized formulations behave alike.
	scale := 1 + p.G.NormInf()
	tol *= scale

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
	// with a warm point: when the box is inactive it is exact in O(n³),
	// while coordinate descent on the rank-one-coupled MPC Hessian can
	// need hundreds of O(n²) sweeps.
	for i := range ws.scratch {
		ws.scratch[i] = -p.G[i]
	}
	if err := p.H.CholeskyInto(ws.chol); err == nil {
		mathx.SolveCholeskyInto(ws.chol, ws.scratch, ws.y, x)
		inBox := true
		for i := range x {
			if x[i] < p.Lo[i]-1e-12 || x[i] > p.Hi[i]+1e-12 {
				inBox = false
				break
			}
		}
		if inBox {
			x.Clamp(p.Lo, p.Hi)
			return Result{X: x, Objective: p.objectiveWith(x, ws.scratch), Converged: true}, nil
		}
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

	res, asIters, ok := solveActiveSet(p, ws, x, tol, opt.HGen)
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
//
// When hgen is non-zero (Options.HGen), each free-block factor is looked up
// in — and on a miss inserted into — the workspace's factor cache, so a
// repeated working set under an unchanged H pays only the O(m²) gather of
// the right-hand side and back-substitution.
func solveActiveSet(p Problem, ws *Workspace, x mathx.Vector, tol float64, hgen uint64) (Result, int, bool) {
	n := len(x)
	pin := ws.pinned
	for i := 0; i < n; i++ {
		pin[i] = x[i] <= p.Lo[i] || x[i] >= p.Hi[i]
	}
	for iter := 0; iter < activeSetIterCap(n); iter++ {
		grad := p.gradientInto(ws.grad, x)
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
			subB := ws.subB[:m]
			for a, i := range free {
				subB[a] = -grad[i]
			}
			var fac []float64
			if hgen != 0 {
				fac = ws.factors.lookup(hgen, free)
			}
			if fac == nil {
				subH := ws.subH[:m*m]
				for a, i := range free {
					row := p.H.Row(i)
					for b, j := range free {
						subH[a*m+b] = row[j]
					}
				}
				if !cholFactorInPlace(subH, m) {
					return Result{}, iter, false // not SPD on the free block: fall back
				}
				if hgen != 0 {
					ws.factors.insert(hgen, free, subH)
				}
				fac = subH
			}
			cholBacksubInPlace(fac, subB, m)
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
		grad = p.gradientInto(ws.grad, x)
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
	}
	return Result{}, activeSetIterCap(n), false
}

// cholSolveInPlace factors the m×m row-major SPD matrix a in place
// (lower-triangular Cholesky) and overwrites b with the solution of the
// original system a·x = b. Returns false if a is not numerically SPD.
func cholSolveInPlace(a, b []float64, m int) bool {
	if !cholFactorInPlace(a, m) {
		return false
	}
	cholBacksubInPlace(a, b, m)
	return true
}

// cholFactorInPlace overwrites the lower triangle of the m×m row-major SPD
// matrix a with its Cholesky factor L (a = L·Lᵀ). Returns false if a is not
// numerically SPD. The factorization is deterministic: bit-identical input
// yields a bit-identical factor, which is what makes caching factors across
// solves exact rather than approximate.
func cholFactorInPlace(a []float64, m int) bool {
	for j := 0; j < m; j++ {
		d := a[j*m+j]
		for k := 0; k < j; k++ {
			d -= a[j*m+k] * a[j*m+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		d = math.Sqrt(d)
		a[j*m+j] = d
		for i := j + 1; i < m; i++ {
			s := a[i*m+j]
			for k := 0; k < j; k++ {
				s -= a[i*m+k] * a[j*m+k]
			}
			a[i*m+j] = s / d
		}
	}
	return true
}

// cholBacksubInPlace overwrites b with the solution of (L·Lᵀ)·x = b given
// the factor L in the lower triangle of a (as left by cholFactorInPlace).
// It only reads a.
func cholBacksubInPlace(a, b []float64, m int) {
	for i := 0; i < m; i++ { // forward: L·y = b
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*m+k] * b[k]
		}
		b[i] = s / a[i*m+i]
	}
	for i := m - 1; i >= 0; i-- { // backward: Lᵀ·x = y
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= a[k*m+i] * b[k]
		}
		b[i] = s / a[i*m+i]
	}
}

// sweepOnce performs one cyclic projected coordinate-descent sweep over x,
// maintaining grad = Hx + g incrementally, and returns the largest
// coordinate move of the sweep.
func sweepOnce(p Problem, x, grad mathx.Vector) float64 {
	var maxMove float64
	for i := range x {
		hii := p.H.At(i, i)
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
		grad.AXPY(d, p.H.Row(i))
		if a := math.Abs(d); a > maxMove {
			maxMove = a
		}
	}
	return maxMove
}

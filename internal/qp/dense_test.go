package qp

import (
	"math"

	"sprintcon/internal/mathx"
)

// The dense reference the O(n) solve is checked against: the primal
// active-set method this package ran before the σ search, on H assembled
// as a dense row-major matrix and factored by textbook Cholesky. It costs
// one O(m³) factorization per working-set change and is exact to rounding.

// denseH assembles H = diag(D) + C·11ᵀ the way the dense MPC did: C in
// every entry, then D[i] added on the diagonal.
func denseH(p Problem) []float64 {
	n := len(p.D)
	h := make([]float64, n*n)
	for i := range h {
		h[i] = p.C
	}
	for i, d := range p.D {
		h[i*n+i] += d
	}
	return h
}

// denseMulVec returns h·x for the n×n row-major h.
func denseMulVec(h, x []float64) mathx.Vector {
	n := len(x)
	y := mathx.NewVector(n)
	for i := range y {
		var s float64
		for j, v := range h[i*n : (i+1)*n] {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// denseObjective evaluates ½xᵀHx + gᵀx.
func denseObjective(h, g, x []float64) float64 {
	hx := denseMulVec(h, x)
	var f float64
	for i, v := range x {
		f += 0.5*v*hx[i] + g[i]*v
	}
	return f
}

// denseKKT is the KKT residual at x with the dense gradient Hx + g.
func denseKKT(p Problem, h []float64, x mathx.Vector) float64 {
	return p.residual(x, denseMulVec(h, x))
}

// cholesky overwrites the lower triangle of the m×m row-major a with its
// Cholesky factor and reports whether every pivot was positive.
func cholesky(a []float64, m int) bool {
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*m+j]
			for k := 0; k < j; k++ {
				s -= a[i*m+k] * a[j*m+k]
			}
			if i == j {
				if !(s > 0) {
					return false
				}
				a[i*m+i] = math.Sqrt(s)
			} else {
				a[i*m+j] = s / a[j*m+j]
			}
		}
	}
	return true
}

// choleskySolve overwrites b with the solution of (L·Lᵀ)·x = b.
func choleskySolve(l, b []float64, m int) {
	for i := 0; i < m; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*m+k] * b[k]
		}
		b[i] = s / l[i*m+i]
	}
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= l[k*m+i] * b[k]
		}
		b[i] = s / l[i*m+i]
	}
}

// denseSolve minimizes ½xᵀHx + gᵀx over lo ≤ x ≤ hi for the n×n row-major
// H by primal active-set Newton iterations from the projection of the
// unconstrained minimizer −H⁻¹g onto the box, with the coordinates that
// projection clips as the first working set. Each iteration factors the free block H_FF and takes the Newton step
// −H_FF⁻¹·g_F, truncated at the first bound it crosses, which joins the
// working set; after a full step, the pinned coordinate with the most
// negative Lagrange multiplier is released, and when there is none the
// point is the minimizer. It reports false when a factorization fails, when
// the KKT residual there exceeds 1e-9·(1 + ‖g‖∞), or after 10n + 50
// iterations.
func denseSolve(h []float64, g, lo, hi mathx.Vector) (mathx.Vector, bool) {
	n := len(g)
	p := Problem{G: g, Lo: lo, Hi: hi}
	tol := defaultTol * (1 + g.NormInf())
	l := append([]float64(nil), h...)
	if !cholesky(l, n) {
		return nil, false
	}
	x := mathx.NewVector(n)
	for i := range x {
		x[i] = -g[i]
	}
	choleskySolve(l, x, n)
	pin := make([]bool, n)
	for i := range x {
		x[i] = math.Min(math.Max(x[i], lo[i]), hi[i])
		pin[i] = x[i] <= lo[i] || x[i] >= hi[i]
	}
	for iter := 0; iter < 10*n+50; iter++ {
		grad := denseMulVec(h, x)
		for i := range grad {
			grad[i] += g[i]
		}
		var free []int
		for i := range x {
			if !pin[i] {
				free = append(free, i)
			}
		}
		m := len(free)
		if m > 0 {
			sub, d := make([]float64, m*m), make([]float64, m)
			for a, i := range free {
				for b, j := range free {
					sub[a*m+b] = h[i*n+j]
				}
				d[a] = -grad[i]
			}
			if !cholesky(sub, m) {
				return x, false
			}
			choleskySolve(sub, d, m)
			alpha, blk, blkAt := 1.0, -1, 0.0
			for a, i := range free {
				if d[a] > 0 && x[i]+d[a] > hi[i] {
					if s := (hi[i] - x[i]) / d[a]; s < alpha {
						alpha, blk, blkAt = s, i, hi[i]
					}
				} else if d[a] < 0 && x[i]+d[a] < lo[i] {
					if s := (lo[i] - x[i]) / d[a]; s < alpha {
						alpha, blk, blkAt = s, i, lo[i]
					}
				}
			}
			for a, i := range free {
				x[i] = math.Min(math.Max(x[i]+alpha*d[a], lo[i]), hi[i])
			}
			if blk >= 0 {
				x[blk], pin[blk] = blkAt, true
				continue
			}
		}
		hx := denseMulVec(h, x)
		worst, worstI := 0.0, -1
		for i := range x {
			if !pin[i] || lo[i] >= hi[i] {
				continue
			}
			v := hx[i] + g[i] // at an upper bound, optimality needs a gradient ≤ 0
			if x[i] <= lo[i] {
				v = -v // at a lower bound, ≥ 0
			}
			if v > worst {
				worst, worstI = v, i
			}
		}
		if worstI < 0 {
			return x, p.residual(x, hx) <= tol
		}
		pin[worstI] = false
	}
	return x, false
}

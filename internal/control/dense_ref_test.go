package control

import (
	"math"

	"sprintcon/internal/mathx"
)

// The dense reference the MPC's O(n) QP is checked against: the primal
// active-set method package qp ran before its σ search, on H assembled as
// a dense row-major matrix and factored by textbook Cholesky. It costs one
// O(m³) factorization per working-set change and is exact to rounding.
// Package qp's tests hold the same reference (test code is not shared
// across packages).

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
	tol := 1e-9 * (1 + g.NormInf())
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
			return x, kktResidual(x, hx, g, lo, hi) <= tol
		}
		pin[worstI] = false
	}
	return x, false
}

// kktResidual is the KKT residual at x given hx = H·x, as package qp
// computes it: at a lower bound the gradient Hx + g may be positive, at an
// upper bound negative, in the interior it must vanish, and a fixed
// coordinate is optimal whatever its gradient.
func kktResidual(x, hx, g, lo, hi []float64) float64 {
	var r float64
	for i, xi := range x {
		gi := hx[i] + g[i]
		var v float64
		switch {
		case lo[i] >= hi[i]:
			continue
		case xi <= lo[i]:
			v = math.Max(0, -gi)
		case xi >= hi[i]:
			v = math.Max(0, gi)
		default:
			v = math.Abs(gi)
		}
		r = math.Max(r, v)
	}
	return r
}

// Package mathx provides the small linear-algebra kernel used by
// SprintCon's model-predictive controller: vectors and the O(n)
// Sherman–Morrison kernels for matrices of the form diag(d) + c·11ᵀ. It is
// deliberately minimal and stdlib-only. A dense row-major matrix and its
// Cholesky kernels live in the package's tests, as the reference the
// Sherman–Morrison kernels are checked against.
package mathx

import "math"

// Vector is a dense column vector of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// NormInf returns the maximum absolute element of x (0 for an empty vector).
func (x Vector) NormInf() float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Package mathx provides the small dense linear-algebra kernel used by
// SprintCon's model-predictive controller: vectors, row-major matrices,
// Cholesky factorization and triangular solves. It is deliberately minimal
// and stdlib-only; sizes in this project are at most a few hundred, so
// clarity is preferred over blocking or SIMD tricks.
package mathx

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of x.
func (x Vector) Clone() Vector {
	y := make(Vector, len(x))
	copy(y, x)
	return y
}

// Dot returns the inner product of x and y. It panics if lengths differ.
func (x Vector) Dot(y Vector) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	return DotSlices(x, y)
}

// AXPY performs x ← x + a·y in place.
func (x Vector) AXPY(a float64, y Vector) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	Axpy(a, y, x)
}

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

// Clamp limits every element of x to [lo[i], hi[i]] in place.
func (x Vector) Clamp(lo, hi Vector) {
	if len(x) != len(lo) || len(x) != len(hi) {
		panic("mathx: Clamp length mismatch")
	}
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		} else if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

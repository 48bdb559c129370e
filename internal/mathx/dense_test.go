package mathx

import (
	"fmt"
	"math"
)

// The dense reference the kernel tests check the Sherman–Morrison kernels
// against: a row-major matrix and its Cholesky factorization and solve.

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: NewMatrix negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Inc adds v to the element at row i, column j.
func (m *Matrix) Inc(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns row i as a vector that shares storage with m.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.cols : (i+1)*m.cols]) }

// MulVecInto computes dst = m·x in place and returns dst. dst must have
// length m.Rows() and must not alias x.
func (m *Matrix) MulVecInto(dst, x Vector) Vector {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mathx: MulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mathx: MulVecInto dst length %d for %d rows", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// OuterAdd performs m ← m + a·x·yᵀ in place.
func (m *Matrix) OuterAdd(a float64, x, y Vector) {
	if len(x) != m.rows || len(y) != m.cols {
		panic("mathx: OuterAdd dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		ax := a * x[i]
		if ax == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range y {
			row[j] += ax * v
		}
	}
}

// CholeskyFactor overwrites the lower triangle of the n×n row-major matrix a
// with its Cholesky factor L (a = L·Lᵀ). It reads only the lower triangle
// and leaves the strict upper triangle as it was. It returns -1 on success,
// or the index of the first pivot that is not positive; a is then partly
// overwritten. A NaN pivot does not stop it: NaN spreads to every later
// pivot, so a caller that must reject NaN input tests the last diagonal
// entry.
//
// Every entry is s = a[i][j] − Σ_{k<j} L[i][k]·L[j][k], with the products
// subtracted in ascending k, then √s on the diagonal and s/L[j][j] below it.
// That is the exact operation sequence of the textbook row-by-row loop, so
// the factor is bit-identical to it. Within a column the kernel runs four
// rows' dot-product chains side by side: they share the loads of row j and
// are independent, so the CPU overlaps them.
func CholeskyFactor(a []float64, n int) int {
	if len(a) < n*n {
		panic("mathx: CholeskyFactor matrix shorter than n×n")
	}
	for j := 0; j < n; j++ {
		rj := a[j*n:][:j]
		d := a[j*n+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 {
			return j
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		i := j + 1
		for ; i+3 < n; i += 4 {
			r0, r1, r2, r3 := a[i*n:][:j], a[(i+1)*n:][:j], a[(i+2)*n:][:j], a[(i+3)*n:][:j]
			s0, s1, s2, s3 := a[i*n+j], a[(i+1)*n+j], a[(i+2)*n+j], a[(i+3)*n+j]
			for k, v := range rj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			a[i*n+j], a[(i+1)*n+j], a[(i+2)*n+j], a[(i+3)*n+j] = s0/d, s1/d, s2/d, s3/d
		}
		for ; i < n; i++ {
			ri := a[i*n:][:j]
			s := a[i*n+j]
			for k, v := range rj {
				s -= ri[k] * v
			}
			a[i*n+j] = s / d
		}
	}
	return -1
}

// CholeskySolve overwrites b with the solution x of (L·Lᵀ)·x = b, given the
// factor L in the lower triangle of the n×n row-major l as CholeskyFactor
// leaves it: forward substitution L·y = b, then back substitution Lᵀ·x = y,
// each sum subtracted in ascending index order. It only reads l.
func CholeskySolve(l, b []float64, n int) {
	if len(l) < n*n || len(b) != n {
		panic("mathx: CholeskySolve dimension mismatch")
	}
	for i := 0; i < n; i++ {
		row := l[i*n:][:i]
		s := b[i]
		for k, v := range b[:i] {
			s -= row[k] * v
		}
		b[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}

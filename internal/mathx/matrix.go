package mathx

import (
	"fmt"
	"math"
)

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

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Inc adds v to the element at row i, column j.
func (m *Matrix) Inc(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Zero resets every element to 0 in place, so a preallocated matrix can be
// rebuilt each control period without allocating.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns row i as a vector that shares storage with m.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.cols : (i+1)*m.cols]) }

// MulVec returns m·x.
func (m *Matrix) MulVec(x Vector) Vector {
	return m.MulVecInto(make(Vector, m.rows), x)
}

// MulVecInto computes dst = m·x in place and returns dst, for allocation-free
// hot paths. dst must have length m.Rows() and must not alias x.
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

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mathx: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	c := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			crow := c.data[i*c.cols : (i+1)*c.cols]
			for j, v := range brow {
				crow[j] += a * v
			}
		}
	}
	return c
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// AddScaled performs m ← m + a·b in place. Panics on shape mismatch.
func (m *Matrix) AddScaled(a float64, b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mathx: AddScaled shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	for i := range m.data {
		m.data[i] += a * b.data[i]
	}
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

// SymmetricMaxDiff returns max |m − mᵀ| over all elements, a cheap check
// that a matrix intended to be symmetric actually is.
func (m *Matrix) SymmetricMaxDiff() float64 {
	if m.rows != m.cols {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if v := math.Abs(m.At(i, j) - m.At(j, i)); v > d {
				d = v
			}
		}
	}
	return d
}

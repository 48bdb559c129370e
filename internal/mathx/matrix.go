package mathx

import "fmt"

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

// Zero resets every element to 0 in place, so a preallocated matrix can be
// rebuilt each control period without allocating.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Row returns row i as a vector that shares storage with m.
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.cols : (i+1)*m.cols]) }

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

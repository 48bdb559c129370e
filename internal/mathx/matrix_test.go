package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Inc(1, 2, 2)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 {
		t.Fatalf("At values wrong: %v %v", m.At(0, 0), m.At(1, 2))
	}
}

func TestIdentityMulVec(t *testing.T) {
	m := Identity(4)
	x := Vector{1, 2, 3, 4}
	y := m.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x = %v", y)
		}
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, vals[i*3+j])
		}
	}
	valsB := []float64{7, 8, 9, 10, 11, 12}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			b.Set(i, j, valsB[i*2+j])
		}
	}
	c := a.Mul(b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 1, 5)
	a.Set(1, 2, -3)
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows(), at.Cols())
	}
	if at.At(1, 0) != 5 || at.At(2, 1) != -3 {
		t.Fatal("transpose values wrong")
	}
}

func TestOuterAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.OuterAdd(2, Vector{1, 2}, Vector{3, 4})
	want := [][]float64{{6, 8}, {12, 16}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("OuterAdd[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

// randomSPD builds A = Bᵀ·B + εI, guaranteed symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Inc(i, i, 0.5)
	}
	return a
}

// factor returns the Cholesky factor of a from CholeskyFactor (lower
// triangle, zeros above) and the failing pivot, -1 on success.
func factor(a *Matrix) (*Matrix, int) {
	n := a.Rows()
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(l.Row(i)[:i+1], a.Row(i)[:i+1])
	}
	return l, CholeskyFactor(l.data, n)
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		l, piv := factor(a)
		if piv >= 0 {
			t.Fatalf("CholeskyFactor failed at pivot %d", piv)
		}
		rec := l.Mul(l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					t.Fatalf("trial %d: L·Lᵀ ≠ A at (%d,%d): %v vs %v", trial, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := Identity(2)
	m.Set(1, 1, -1)
	if _, piv := factor(m); piv != 1 {
		t.Fatalf("CholeskyFactor of diag(1, -1) failed at pivot %d, want 1", piv)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CholeskyFactor on a buffer shorter than n×n did not panic")
		}
	}()
	CholeskyFactor(make([]float64, 3), 2)
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		got := a.MulVec(want)
		l, piv := factor(a)
		if piv >= 0 {
			t.Fatalf("CholeskyFactor failed at pivot %d", piv)
		}
		CholeskySolve(l.data, got, n)
		if diff := got.Sub(want).Norm2(); diff > 1e-7*(1+want.Norm2()) {
			t.Fatalf("trial %d: solution error %v", trial, diff)
		}
	}
}

// Property: (AB)ᵀ = BᵀAᵀ on small random matrices.
func TestTransposeOfProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(3, 4)
		b := NewMatrix(4, 2)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if !almostEq(lhs.At(i, j), rhs.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecInto with wrong length should panic")
		}
	}()
	Identity(3).MulVecInto(NewVector(3), Vector{1, 2})
}

// Test-only matrix helpers: reference arithmetic for the kernel tests.

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x Vector) Vector {
	return m.MulVecInto(make(Vector, m.rows), x)
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

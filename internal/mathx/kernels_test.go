package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// The kernels back the Vector methods on the QP/MPC hot path, so their
// contract is bitwise agreement with the scalar loops they replaced.

func TestAxpyBitwise(t *testing.T) {
	x := []float64{1.5, -2.25, 0, math.Pi, 1e-300}
	y := []float64{0.5, 3.75, -1, math.E, 1e300}
	want := make([]float64, len(y))
	copy(want, y)
	const a = -0.3
	for i := range want {
		want[i] += a * x[i]
	}
	Axpy(a, x, y)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Axpy(1, x, y[:2])
}

func TestDotSlicesBitwise(t *testing.T) {
	x := []float64{1e-9, 1e9, -2.5, 0.125, math.Pi}
	y := []float64{3, -1e-9, 4, 8, 1}
	var dot float64
	for i := range x {
		dot += x[i] * y[i]
	}
	if math.Float64bits(DotSlices(x, y)) != math.Float64bits(dot) {
		t.Fatalf("DotSlices = %v, want %v", DotSlices(x, y), dot)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("DotSlices length mismatch did not panic")
		}
	}()
	DotSlices(x, y[:2])
}

// choleskyReference is the textbook row-by-row Cholesky loop over At/Set
// that CholeskyFactor replaced. It returns the first non-positive pivot, or
// -1.
func choleskyReference(m, l *Matrix) int {
	n := m.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return i
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return -1
}

// choleskySolveReference is forward then back substitution over At, the
// loop CholeskySolve replaced.
func choleskySolveReference(l *Matrix, b Vector) Vector {
	n := l.Rows()
	y, x := NewVector(n), NewVector(n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// diagPlusRankOne builds diag(d) + alpha·k·kᵀ the way the MPC assembles its
// Hessian: the rank-one term first, then the diagonal added on top.
func diagPlusRankOne(rng *rand.Rand, m int) *Matrix {
	a := NewMatrix(m, m)
	k := NewVector(m)
	for i := range k {
		k[i] = 8 + 3*rng.Float64()
	}
	a.OuterAdd(30*rng.Float64(), k, k)
	for i := 0; i < m; i++ {
		a.Inc(i, i, 200*math.Max(3*rng.Float64(), 1e-6))
	}
	return a
}

// CholeskyFactor and CholeskySolve must reproduce the At-indexed reference
// loops bit for bit, on dense SPD and on MPC-shaped diagonal-plus-rank-one
// matrices of every size the interleaved kernel's four-row blocking and
// remainder can produce.
func TestCholeskyKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for m := 1; m <= 70; m++ {
		for _, a := range []*Matrix{randomSPD(rng, m), diagPlusRankOne(rng, m)} {
			ref := NewMatrix(m, m)
			if piv := choleskyReference(a, ref); piv >= 0 {
				t.Fatalf("m=%d: reference rejected an SPD matrix at pivot %d", m, piv)
			}
			l, piv := factor(a)
			if piv >= 0 {
				t.Fatalf("m=%d: CholeskyFactor rejected an SPD matrix at pivot %d", m, piv)
			}
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					if math.Float64bits(l.At(i, j)) != math.Float64bits(ref.At(i, j)) {
						t.Fatalf("m=%d: L[%d][%d] = %v, reference %v", m, i, j, l.At(i, j), ref.At(i, j))
					}
				}
			}
			b := NewVector(m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := choleskySolveReference(ref, b)
			got := b.Clone()
			CholeskySolve(l.data, got, m)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("m=%d: x[%d] = %v, reference %v", m, i, got[i], want[i])
				}
			}
		}
	}
}

// A matrix that is not positive definite must be rejected at the same pivot
// the reference loop stops at, whether that pivot falls in a four-row block
// or in the remainder.
func TestCholeskyKernelRejectsAtSamePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for m := 1; m <= 70; m++ {
		a := diagPlusRankOne(rng, m)
		// A negative diagonal entry is the first pivot to fail.
		bad := rng.Intn(m)
		a.Set(bad, bad, -a.At(bad, bad)*rng.Float64())
		want := choleskyReference(a, NewMatrix(m, m))
		if want < 0 {
			t.Fatalf("m=%d: reference accepted an indefinite matrix", m)
		}
		if _, got := factor(a); got != want {
			t.Fatalf("m=%d: CholeskyFactor failed at pivot %d, reference at %d", m, got, want)
		}
	}
}

// equalOffDiag draws an m×m MPC-shaped equal-off-diagonal matrix: c =
// (α·k)·k with one slope k for every core, and d[i] = 200·max(w, 1e-6) with
// log-uniform weights w, a fifth of them at the 1e-6 floor. It returns c, d
// and the dense matrix assembled the way the dense MPC path builds it:
// 0 + c in every entry, then d[i] added on the diagonal.
func equalOffDiag(rng *rand.Rand, m int) (float64, Vector, *Matrix) {
	k := 8 + 3*rng.Float64()
	c := (30 * rng.Float64() * k) * k
	d := NewVector(m)
	for i := range d {
		w := math.Pow(10, -2+4*rng.Float64())
		if rng.Float64() < 0.2 {
			w = 0
		}
		d[i] = 200 * math.Max(w, 1e-6)
	}
	a := NewMatrix(m, m)
	for i := range a.data {
		a.data[i] += c
	}
	for i := 0; i < m; i++ {
		a.Inc(i, i, d[i])
	}
	return c, d, a
}

// sameBits reports whether x and y agree bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// The EqualOffDiag factor, solve and product must reproduce the dense
// kernels on the assembled matrix bit for bit, for every size up to 70.
func TestEqualOffDiagKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for m := 1; m <= 70; m++ {
		c, d, a := equalOffDiag(rng, m)
		dense, piv := factor(a)
		if piv >= 0 {
			t.Fatalf("m=%d: CholeskyFactor rejected an SPD matrix at pivot %d", m, piv)
		}
		l, diag := NewVector(m), NewVector(m)
		if piv := EqualOffDiagFactor(c, d, l, diag); piv >= 0 {
			t.Fatalf("m=%d: EqualOffDiagFactor rejected an SPD matrix at pivot %d", m, piv)
		}
		for i := 0; i < m; i++ {
			if !sameBits(diag[i], dense.At(i, i)) {
				t.Fatalf("m=%d: L[%d][%d] = %v, dense %v", m, i, i, diag[i], dense.At(i, i))
			}
			for j := 0; j < i; j++ {
				if !sameBits(l[j], dense.At(i, j)) {
					t.Fatalf("m=%d: L[%d][%d] = %v, dense %v", m, i, j, l[j], dense.At(i, j))
				}
			}
		}
		// diag may alias d.
		inPlace, lp := d.Clone(), NewVector(m)
		EqualOffDiagFactor(c, inPlace, lp, inPlace)
		for i := range inPlace {
			if !sameBits(inPlace[i], diag[i]) || !sameBits(lp[i], l[i]) {
				t.Fatalf("m=%d: in-place factor differs at %d", m, i)
			}
		}

		x := NewVector(m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := x.Clone()
		CholeskySolve(dense.data, want, m)
		got := x.Clone()
		EqualOffDiagSolve(l, diag, got)
		wantHx := a.MulVec(x)
		gotHx := NewVector(m)
		EqualOffDiagMulVec(gotHx, c, d, x)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("m=%d: solve x[%d] = %v, dense %v", m, i, got[i], want[i])
			}
			if !sameBits(gotHx[i], wantHx[i]) {
				t.Fatalf("m=%d: (H·x)[%d] = %v, dense %v", m, i, gotHx[i], wantHx[i])
			}
		}
	}
}

// A matrix that is not positive definite must be rejected at the pivot the
// dense kernel stops at, and a NaN must spread to the last pivot of both.
func TestEqualOffDiagFactorRejectsLikeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m := 1; m <= 70; m++ {
		c, d, a := equalOffDiag(rng, m)
		bad := rng.Intn(m)
		d[bad] = -c * (1 + rng.Float64())
		a.Set(bad, bad, c+d[bad])
		_, want := factor(a)
		if want < 0 {
			t.Fatalf("m=%d: dense kernel accepted an indefinite matrix", m)
		}
		if got := EqualOffDiagFactor(c, d, NewVector(m), NewVector(m)); got != want {
			t.Fatalf("m=%d: EqualOffDiagFactor failed at pivot %d, dense at %d", m, got, want)
		}

		c, d, a = equalOffDiag(rng, m)
		d[bad] = math.NaN()
		a.Set(bad, bad, c+d[bad])
		dense, piv := factor(a)
		diag := NewVector(m)
		if got := EqualOffDiagFactor(c, d, NewVector(m), diag); got != piv || got != -1 {
			t.Fatalf("m=%d: NaN input returned pivot %d, dense %d, want -1", m, got, piv)
		}
		if last := diag[m-1]; !math.IsNaN(last) || !math.IsNaN(dense.At(m-1, m-1)) {
			t.Fatalf("m=%d: NaN did not reach the last pivot: %v, dense %v", m, last, dense.At(m-1, m-1))
		}
	}
}

package mathx

import (
	"encoding/binary"
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
			got := append(Vector(nil), b...)
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
		inPlace, lp := append(Vector(nil), d...), NewVector(m)
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
		want := append(Vector(nil), x...)
		CholeskySolve(dense.data, want, m)
		got := append(Vector(nil), x...)
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

// The EqualOffDiag kernels as they were before they ran four rows per
// sweep: one row at a time, each sum a single serial chain. The four-row
// kernels must reproduce them bit for bit.

func equalOffDiagFactorRef(c float64, d, l, diag []float64) int {
	t := c
	for j := range d {
		s := c + d[j]
		for _, v := range l[:j] {
			s -= v * v
		}
		if s <= 0 {
			return j
		}
		s = math.Sqrt(s)
		diag[j] = s
		l[j] = t / s
		t -= l[j] * l[j]
	}
	return -1
}

func equalOffDiagSolveRef(l, diag, b []float64) {
	n := len(b)
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range b[:i] {
			s -= l[k] * v
		}
		b[i] = s / diag[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		li := l[i]
		for _, v := range b[i+1:] {
			s -= li * v
		}
		b[i] = s / diag[i]
	}
}

func equalOffDiagMulVecRef(dst []float64, c float64, d, x []float64) {
	var p float64
	for i, xi := range x {
		s := p
		s += (c + d[i]) * xi
		for _, v := range x[i+1:] {
			s += c * v
		}
		dst[i] = s
		p += c * xi
	}
}

// sameFloat reports whether x and y agree bit for bit or are both NaN.
// Which payload a NaN carries out of an operation with two NaN operands
// depends on which operand the compiler keeps in the destination register,
// which is not part of any kernel's contract.
func sameFloat(x, y float64) bool { return sameBits(x, y) || (x != x && y != y) }

// decodeEqualOffDiag reads d and x, m values each, as raw float64 bits from
// raw, shortening m to what raw holds.
func decodeEqualOffDiag(raw []byte, m int) (d, x Vector) {
	if m > len(raw)/16 {
		m = len(raw) / 16
	}
	d, x = NewVector(m), NewVector(m)
	for i := 0; i < m; i++ {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
	}
	return d, x
}

// encodeEqualOffDiag is decodeEqualOffDiag's inverse, for seeding.
func encodeEqualOffDiag(d, x Vector) []byte {
	raw := make([]byte, 0, 16*len(d))
	for i := range d {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(d[i]))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x[i]))
	}
	return raw
}

// checkEqualOffDiagKernels runs the three kernels on (c, d, x) and compares
// every output with the dense kernels on the assembled matrix and with the
// one-row-at-a-time reference copies. With inPlace set the factor writes
// its diagonal over a copy of d.
func checkEqualOffDiagKernels(t *testing.T, c float64, d, x Vector, inPlace bool) {
	t.Helper()
	m := len(d)
	a := NewMatrix(m, m)
	for i := range a.data {
		a.data[i] = c
	}
	for i := 0; i < m; i++ {
		a.Set(i, i, c+d[i])
	}
	dense, wantPiv := factor(a)
	refL, refDiag := NewVector(m), NewVector(m)
	if piv := equalOffDiagFactorRef(c, d, refL, refDiag); piv != wantPiv {
		t.Fatalf("m=%d: reference factor stopped at pivot %d, dense at %d", m, piv, wantPiv)
	}
	l, diag := NewVector(m), NewVector(m)
	if inPlace {
		diag = append(Vector(nil), d...)
		if piv := EqualOffDiagFactor(c, diag, l, diag); piv != wantPiv {
			t.Fatalf("m=%d: in-place factor stopped at pivot %d, dense at %d", m, piv, wantPiv)
		}
	} else if piv := EqualOffDiagFactor(c, d, l, diag); piv != wantPiv {
		t.Fatalf("m=%d: factor stopped at pivot %d, dense at %d", m, piv, wantPiv)
	}
	done := m // columns the factor completed
	if wantPiv >= 0 {
		done = wantPiv
	}
	for j := 0; j < done; j++ {
		if !sameFloat(diag[j], dense.At(j, j)) || !sameFloat(diag[j], refDiag[j]) {
			t.Fatalf("m=%d: diag[%d] = %v, dense %v, reference %v", m, j, diag[j], dense.At(j, j), refDiag[j])
		}
		if !sameFloat(l[j], refL[j]) {
			t.Fatalf("m=%d: l[%d] = %v, reference %v", m, j, l[j], refL[j])
		}
		for i := j + 1; i < m; i++ {
			if !sameFloat(l[j], dense.At(i, j)) {
				t.Fatalf("m=%d: L[%d][%d] = %v, dense %v", m, i, j, l[j], dense.At(i, j))
			}
		}
	}

	if wantPiv < 0 {
		want := append(Vector(nil), x...)
		CholeskySolve(dense.data, want, m)
		ref := append(Vector(nil), x...)
		equalOffDiagSolveRef(l, diag, ref)
		got := append(Vector(nil), x...)
		EqualOffDiagSolve(l, diag, got)
		for i := range got {
			if !sameFloat(got[i], want[i]) || !sameFloat(got[i], ref[i]) {
				t.Fatalf("m=%d: solve x[%d] = %v, dense %v, reference %v", m, i, got[i], want[i], ref[i])
			}
		}
	}

	wantHx := a.MulVec(x)
	refHx, gotHx := NewVector(m), NewVector(m)
	equalOffDiagMulVecRef(refHx, c, d, x)
	EqualOffDiagMulVec(gotHx, c, d, x)
	for i := range gotHx {
		if !sameFloat(gotHx[i], wantHx[i]) || !sameFloat(gotHx[i], refHx[i]) {
			t.Fatalf("m=%d: (H·x)[%d] = %v, dense %v, reference %v", m, i, gotHx[i], wantHx[i], refHx[i])
		}
	}
}

// The four-row kernels must agree with the dense kernels and with their
// one-row reference copies on every size up to 70 (every block count and
// remainder), including a non-positive and a NaN pivot in each position of
// a block.
func TestEqualOffDiagKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for m := 1; m <= 70; m++ {
		c, d, _ := equalOffDiag(rng, m)
		x := NewVector(m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		checkEqualOffDiagKernels(t, c, d, x, false)
		checkEqualOffDiagKernels(t, c, d, x, true)
		for _, bad := range []int{rng.Intn(m), m - 1} {
			neg := append(Vector(nil), d...)
			neg[bad] = -c * (1 + rng.Float64())
			checkEqualOffDiagKernels(t, c, neg, x, false)
			nan := append(Vector(nil), d...)
			nan[bad] = math.NaN()
			checkEqualOffDiagKernels(t, c, nan, x, true)
		}
	}
}

// FuzzEqualOffDiagKernels decodes (c, d, x) with n ≤ 70 from the fuzzer's
// input (d and x as raw float64 bits, so every sign, NaN and infinity can
// occur) and checks the three kernels against the dense kernels and the
// reference copies, with the factor's diagonal written over d when inPlace
// is set.
func FuzzEqualOffDiagKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(70))
	for _, m := range []int{1, 3, 4, 7, 16, 33, 64, 70} {
		c, d, _ := equalOffDiag(rng, m)
		x := NewVector(m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		f.Add(uint8(m), c, encodeEqualOffDiag(d, x), m%2 == 0)
		bad := append(Vector(nil), d...)
		bad[m/2] = -2 * c
		f.Add(uint8(m), c, encodeEqualOffDiag(bad, x), false)
		bad[m/2] = math.NaN()
		f.Add(uint8(m), c, encodeEqualOffDiag(bad, x), true)
	}
	f.Fuzz(func(t *testing.T, n uint8, c float64, raw []byte, inPlace bool) {
		d, x := decodeEqualOffDiag(raw, int(n)%71)
		checkEqualOffDiagKernels(t, c, d, x, inPlace)
	})
}

// benchEqualOffDiag returns an MPC-shaped n = 64 problem for the kernel
// benchmarks, the size of a 16-server rack's batch cores.
func benchEqualOffDiag(b *testing.B) (c float64, d, x Vector) {
	c, d, _ = equalOffDiag(rand.New(rand.NewSource(64)), 64)
	x = NewVector(64)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	return c, d, x
}

func BenchmarkEqualOffDiagFactor(b *testing.B) {
	c, d, _ := benchEqualOffDiag(b)
	l, diag := NewVector(len(d)), NewVector(len(d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EqualOffDiagFactor(c, d, l, diag)
	}
}

func BenchmarkEqualOffDiagSolve(b *testing.B) {
	c, d, x := benchEqualOffDiag(b)
	l, diag := NewVector(len(d)), NewVector(len(d))
	EqualOffDiagFactor(c, d, l, diag)
	y := NewVector(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		EqualOffDiagSolve(l, diag, y)
	}
}

func BenchmarkEqualOffDiagMulVec(b *testing.B) {
	c, d, x := benchEqualOffDiag(b)
	dst := NewVector(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EqualOffDiagMulVec(dst, c, d, x)
	}
}

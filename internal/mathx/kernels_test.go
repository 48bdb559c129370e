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
// and the dense matrix assembled the way the dense reference builds it:
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

// eodBoundsSafe reports whether every value of c, d and x is zero or has a
// magnitude in [2⁻²⁰⁰, 2²⁰⁰]: no product, quotient or sum of n ≤ 130 such
// values overflows or underflows in either the dense or the
// Sherman–Morrison kernels, so rounding is the only error left.
func eodBoundsSafe(c float64, d, x Vector) bool {
	ok := func(v float64) bool {
		a := math.Abs(v)
		return a == 0 || a >= 0x1p-200 && a <= 0x1p200
	}
	if !ok(c) {
		return false
	}
	for i := range d {
		if !ok(d[i]) || !ok(x[i]) {
			return false
		}
	}
	return true
}

// solveBound is |Δy|∞ ≤ 16·n·κ̂·ε·(1 + ‖y‖∞) with κ̂ = (max d + |c|·n)/min d,
// the bound the QP oracle uses: κ̂ bounds H's 2-norm condition number from
// above when c ≥ 0, and n·κ·ε·‖y‖ is the first-order size of each solve's
// forward error and of the dense diagonal's rounding of c + d[i].
func solveBound(c float64, d, y Vector) float64 {
	minD, maxD := math.Inf(1), 0.0
	for _, v := range d {
		minD, maxD = math.Min(minD, v), math.Max(maxD, v)
	}
	n := float64(len(d))
	kappa := (maxD + math.Abs(c)*n) / minD
	return 16 * n * kappa * 0x1p-53 * (1 + y.NormInf())
}

// checkEqualOffDiagKernels runs the three kernels on (c, d, x) and compares
// them with the dense kernels on the assembled matrix. The factor must
// accept exactly d ≻ 0 with 0 < 1 + c·Σ1/d[i] ≤ 2⁴⁰. On inputs eodBoundsSafe
// admits: the product must agree with Matrix.MulVecInto to 4·(n+2)·ε times
// Σ|H_ij·x_j| per row, and, when c ≥ 0 and the dense factor accepts too,
// the solve with CholeskySolve within solveBound, leaving a residual the
// size of the rounding in H·y and b. The kernels must not
// panic on any input.
func checkEqualOffDiagKernels(t *testing.T, c float64, d, x Vector) {
	t.Helper()
	m := len(d)
	w := NewVector(m)
	den, ok := EqualOffDiagFactor(c, d, w)
	want, sumInv := true, 0.0
	for _, v := range d {
		want = want && v > 0
		sumInv += 1 / v
	}
	wantDen := 1 + float64(c*sumInv)
	want = want && wantDen > 0 && wantDen <= 0x1p40
	if ok != want {
		t.Fatalf("m=%d c=%v: factor accepted=%v, want %v (d=%v)", m, c, ok, want, d)
	}
	safe := eodBoundsSafe(c, d, x)

	a := NewMatrix(m, m)
	for i := range a.data {
		a.data[i] = c
	}
	for i := 0; i < m; i++ {
		a.Set(i, i, c+d[i])
	}
	gotHx := NewVector(m)
	EqualOffDiagMulVec(gotHx, c, d, x)
	if safe {
		wantHx := a.MulVec(x)
		var sumAbs float64
		for _, v := range x {
			sumAbs += math.Abs(v)
		}
		for i := range gotHx {
			tol := 4 * float64(m+2) * 0x1p-53 * (math.Abs(c)*sumAbs + math.Abs(d[i]*x[i]))
			if diff := math.Abs(gotHx[i] - wantHx[i]); !(diff <= tol) {
				t.Fatalf("m=%d: (H·x)[%d] = %v, dense %v, |Δ| %g > %g", m, i, gotHx[i], wantHx[i], diff, tol)
			}
		}
	}
	if !ok {
		return
	}
	got := append(Vector(nil), x...)
	EqualOffDiagSolve(c, den, w, got)
	dense, piv := factor(a)
	if !safe || c < 0 || piv >= 0 {
		return
	}
	ref := append(Vector(nil), x...)
	CholeskySolve(dense.data, ref, m)
	tol := solveBound(c, d, ref)
	for i := range got {
		if diff := math.Abs(got[i] - ref[i]); !(diff <= tol) {
			t.Fatalf("m=%d: solve y[%d] = %v, dense %v, |Δ| %g > %g", m, i, got[i], ref[i], diff, tol)
		}
	}
	// The solve is backward stable: H·y − b is the size of the rounding
	// in forming H·y and b, as for a dense Cholesky solve.
	hy := a.MulVec(got)
	var sumAbs float64
	for _, v := range got {
		sumAbs += math.Abs(v)
	}
	for i := range hy {
		r := math.Abs(hy[i] - x[i])
		if bound := 8 * float64(m+2) * 0x1p-53 * (c*sumAbs + math.Abs(d[i]*got[i]) + math.Abs(x[i])); !(r <= bound) {
			t.Fatalf("m=%d: residual (H·y − b)[%d] = %g > %g", m, i, r, bound)
		}
	}
}

// On MPC-shaped matrices of every size up to 130 the kernels agree with the
// dense kernels within their rounding bounds, and the factor accepts every
// one of them, with w written over d or not; a non-positive or NaN d[i] in
// any position, and a NaN c, are rejected.
func TestEqualOffDiagKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for m := 1; m <= 130; m++ {
		c, d, _ := equalOffDiag(rng, m)
		x := NewVector(m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		w := NewVector(m)
		den, ok := EqualOffDiagFactor(c, d, w)
		if !ok {
			t.Fatalf("m=%d: factor rejected a positive definite matrix", m)
		}
		// w may alias d.
		inPlace := append(Vector(nil), d...)
		if den2, _ := EqualOffDiagFactor(c, inPlace, inPlace); !sameBits(den2, den) {
			t.Fatalf("m=%d: in-place factor gave den %v, want %v", m, den2, den)
		}
		for i := range w {
			if !sameBits(inPlace[i], w[i]) {
				t.Fatalf("m=%d: in-place w[%d] = %v, want %v", m, i, inPlace[i], w[i])
			}
		}
		checkEqualOffDiagKernels(t, c, d, x)
		for _, bad := range []int{rng.Intn(m), m - 1} {
			for _, v := range []float64{-c * (1 + rng.Float64()), 0, math.NaN()} {
				e := append(Vector(nil), d...)
				e[bad] = v
				if _, ok := EqualOffDiagFactor(c, e, NewVector(m)); ok {
					t.Fatalf("m=%d: factor accepted d[%d] = %v", m, bad, v)
				}
				checkEqualOffDiagKernels(t, c, e, x)
			}
		}
		if _, ok := EqualOffDiagFactor(math.NaN(), d, NewVector(m)); ok {
			t.Fatalf("m=%d: factor accepted c = NaN", m)
		}
	}
}

// The MPC's extreme Hessians stay inside the factor's denominator cap: 130
// cores at 40 W/GHz with every R weight at its 1e-6 floor (RScale 40), in
// the constant-move form (C = 30·k², D = 5·40·1e-6) and in the full-horizon
// first move's (C = k², D = 40·1e-6).
func TestEqualOffDiagFactorAcceptsMPCExtremes(t *testing.T) {
	const n, k, rFloor = 130, 40.0, 40 * 1e-6
	for _, c := range []struct {
		name    string
		c, d    float64
		wantDen float64
	}{
		{"constant move", (30 * k) * k, 5 * rFloor, 3.12e10},
		{"full horizon", k * k, rFloor, 5.2e9},
	} {
		d := Constant(n, c.d)
		den, ok := EqualOffDiagFactor(c.c, d, NewVector(n))
		if !ok || !(den < maxEqualOffDiagDen) {
			t.Fatalf("%s: factor accepted=%v with den %g, want accepted below %g", c.name, ok, den, float64(maxEqualOffDiagDen))
		}
		if math.Abs(den-c.wantDen) > 1e-3*c.wantDen {
			t.Fatalf("%s: den %g, want about %g", c.name, den, c.wantDen)
		}
	}
}

// Every matrix the dense factor rejects as indefinite the equal-off-diagonal
// factor rejects too: a negative d[i] (whatever c), and a negative c that
// makes the denominator 1 + c·Σ1/d[i] negative. A NaN in d, which the
// dense factor spreads to its last pivot, is rejected outright.
func TestEqualOffDiagFactorRejectsLikeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m := 1; m <= 70; m++ {
		c, d, a := equalOffDiag(rng, m)
		bad := rng.Intn(m)
		d[bad] = -c * (1 + rng.Float64())
		a.Set(bad, bad, c+d[bad])
		if _, piv := factor(a); piv < 0 {
			t.Fatalf("m=%d: dense kernel accepted an indefinite matrix", m)
		}
		if _, ok := EqualOffDiagFactor(c, d, NewVector(m)); ok {
			t.Fatalf("m=%d: EqualOffDiagFactor accepted an indefinite matrix", m)
		}

		c, d, _ = equalOffDiag(rng, m)
		var sumInv float64
		for _, v := range d {
			sumInv += 1 / v
		}
		neg := -2 / sumInv // 1 + neg·Σ1/d = −1
		a = NewMatrix(m, m)
		for i := range a.data {
			a.data[i] = neg
		}
		for i := 0; i < m; i++ {
			a.Inc(i, i, d[i])
		}
		if _, piv := factor(a); piv < 0 {
			t.Fatalf("m=%d: dense kernel accepted c = %v, d = %v", m, neg, d)
		}
		if _, ok := EqualOffDiagFactor(neg, d, NewVector(m)); ok {
			t.Fatalf("m=%d: EqualOffDiagFactor accepted a non-positive denominator", m)
		}

		d[bad] = math.NaN()
		if _, ok := EqualOffDiagFactor(c, d, NewVector(m)); ok {
			t.Fatalf("m=%d: EqualOffDiagFactor accepted a NaN", m)
		}
	}
}

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

// FuzzEqualOffDiagKernels decodes (c, d, x) with n ≤ 130 from the fuzzer's
// input (d and x as raw float64 bits, so every sign, NaN and infinity can
// occur) and holds the three kernels to checkEqualOffDiagKernels' contract.
// With neg set, c is negated, which exercises the denominator test.
func FuzzEqualOffDiagKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(70))
	for _, m := range []int{1, 3, 4, 7, 16, 33, 64, 130} {
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
	f.Fuzz(func(t *testing.T, n uint8, c float64, raw []byte, neg bool) {
		d, x := decodeEqualOffDiag(raw, int(n)%131)
		if neg {
			c = -c
		}
		checkEqualOffDiagKernels(t, c, d, x)
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
	w := NewVector(len(d))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EqualOffDiagFactor(c, d, w)
	}
}

func BenchmarkEqualOffDiagSolve(b *testing.B) {
	c, d, x := benchEqualOffDiag(b)
	w := NewVector(len(d))
	den, _ := EqualOffDiagFactor(c, d, w)
	y := NewVector(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		EqualOffDiagSolve(c, den, w, y)
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

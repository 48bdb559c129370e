package mathx

import "math"

// Fused slice kernels for the QP and MPC hot path. These operate on
// contiguous float64 slices with simple branch-free inner loops the compiler
// can keep in registers (and, where profitable, auto-vectorize). They are
// deliberately free of bounds re-checks beyond the initial length match so
// they run as tight loops instead of per-element method calls.

// Axpy computes y[i] += alpha*x[i] over matching slices.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mathx: Axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// DotSlices returns Σ x[i]·y[i] over matching slices.
func DotSlices(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mathx: DotSlices length mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
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

// The EqualOffDiag kernels work on an n×n symmetric matrix whose every
// off-diagonal entry is the same float64 c and whose diagonal entries are
// c + d[i], rounded once. Each kernel gives every entry of its output the
// same float64 operations, on the same operand values and in the same order,
// as the dense kernel on the assembled matrix, so the results are
// bit-identical to CholeskyFactor, CholeskySolve and Matrix.MulVecInto. Each
// product stays inside the same s -= a*b or s += a*b expression the dense
// kernel uses, so targets that fuse multiply-adds fuse both alike.
//
// Every row's sum is a serial chain of dependent adds. The kernels advance
// four rows per sweep, each in its own accumulator: the chains are
// independent, so the CPU overlaps them, and no row's operations change.
// Rows left over when n is not a multiple of four run one at a time.

// EqualOffDiagFactor computes the Cholesky factor of the matrix with
// off-diagonal c and diagonal c + d[i], n = len(d). Below the diagonal,
// column j of the factor holds one value for every row, written to l[j];
// the diagonal is written to diag, which may alias d. Column j's entries are
// l[j] = t_j / diag[j], with t_0 = c and t_{j+1} = t_j − l[j]·l[j], and
// diag[j] = √(c + d[j] − l[0]·l[0] − … − l[j−1]·l[j−1]): the sums the
// dense kernel forms for those entries. It returns -1 on success or the
// index of the first pivot that is not positive, and spreads a NaN pivot to
// the last one, as CholeskyFactor does. It runs in O(n²).
//
// Pivots j..j+3 share the terms l[0..j−1], summed side by side; pivot j+r
// then subtracts l[j]², …, l[j+r−1]² once those columns exist. d[j..j+3]
// are read before diag[j] is written, so diag may alias d.
func EqualOffDiagFactor(c float64, d, l, diag []float64) int {
	n := len(d)
	if len(l) != n || len(diag) != n {
		panic("mathx: EqualOffDiagFactor dimension mismatch")
	}
	t := c
	j := 0
	for ; j+3 < n; j += 4 {
		s0, s1, s2, s3 := c+d[j], c+d[j+1], c+d[j+2], c+d[j+3]
		for _, v := range l[:j] {
			s0 -= v * v
			s1 -= v * v
			s2 -= v * v
			s3 -= v * v
		}
		if s0 <= 0 {
			return j
		}
		s0 = math.Sqrt(s0)
		diag[j] = s0
		l0 := t / s0
		l[j] = l0
		t -= l0 * l0
		s1 -= l0 * l0
		if s1 <= 0 {
			return j + 1
		}
		s1 = math.Sqrt(s1)
		diag[j+1] = s1
		l1 := t / s1
		l[j+1] = l1
		t -= l1 * l1
		s2 -= l0 * l0
		s2 -= l1 * l1
		if s2 <= 0 {
			return j + 2
		}
		s2 = math.Sqrt(s2)
		diag[j+2] = s2
		l2 := t / s2
		l[j+2] = l2
		t -= l2 * l2
		s3 -= l0 * l0
		s3 -= l1 * l1
		s3 -= l2 * l2
		if s3 <= 0 {
			return j + 3
		}
		s3 = math.Sqrt(s3)
		diag[j+3] = s3
		l[j+3] = t / s3
		t -= l[j+3] * l[j+3]
	}
	for ; j < n; j++ {
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

// EqualOffDiagSolve overwrites b with the solution x of (L·Lᵀ)·x = b, given
// the factor (l, diag) as EqualOffDiagFactor leaves it: forward then back
// substitution, each sum subtracted in ascending index order, bit-identical
// to CholeskySolve on the dense factor. It only reads l and diag.
//
// The forward pass solves four rows per sweep: rows i..i+3 subtract the
// solved prefix b[0..i−1] side by side, then row i+r subtracts the
// b[i..i+r−1] solved within the block. The back pass stays serial: the
// first term of row i−1 is the b[i] that row i has just solved.
func EqualOffDiagSolve(l, diag, b []float64) {
	n := len(b)
	if len(l) != n || len(diag) != n {
		panic("mathx: EqualOffDiagSolve dimension mismatch")
	}
	i := 0
	for ; i+3 < n; i += 4 {
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for k, v := range b[:i] {
			lk := l[k]
			s0 -= lk * v
			s1 -= lk * v
			s2 -= lk * v
			s3 -= lk * v
		}
		li, li1, li2 := l[i], l[i+1], l[i+2]
		x0 := s0 / diag[i]
		s1 -= li * x0
		x1 := s1 / diag[i+1]
		s2 -= li * x0
		s2 -= li1 * x1
		x2 := s2 / diag[i+2]
		s3 -= li * x0
		s3 -= li1 * x1
		s3 -= li2 * x2
		b[i], b[i+1], b[i+2], b[i+3] = x0, x1, x2, s3/diag[i+3]
	}
	for ; i < n; i++ {
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

// EqualOffDiagMulVec computes dst = H·x for H with off-diagonal c and
// diagonal c + d[i]. Row i's sum is the shared prefix Σ_{j<i} c·x[j], then
// (c + d[i])·x[i], then c·x[j] for every j > i: the terms and order of
// Matrix.MulVecInto's row sum. dst must not alias x. It runs in O(n²)
// without reading a matrix.
//
// Rows i..i+3 start from their own prefixes, add their diagonal term and
// the c·x[j] with j < i+4 that follow it, then add the common tail
// c·x[i+4..n−1] side by side.
func EqualOffDiagMulVec(dst []float64, c float64, d, x []float64) {
	n := len(x)
	if len(d) != n || len(dst) != n {
		panic("mathx: EqualOffDiagMulVec dimension mismatch")
	}
	var p float64
	i := 0
	for ; i+3 < n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 := p
		p += c * x0
		s1 := p
		p += c * x1
		s2 := p
		p += c * x2
		s3 := p
		p += c * x3
		s0 += (c + d[i]) * x0
		s0 += c * x1
		s0 += c * x2
		s0 += c * x3
		s1 += (c + d[i+1]) * x1
		s1 += c * x2
		s1 += c * x3
		s2 += (c + d[i+2]) * x2
		s2 += c * x3
		s3 += (c + d[i+3]) * x3
		for _, v := range x[i+4:] {
			s0 += c * v
			s1 += c * v
			s2 += c * v
			s3 += c * v
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		xi := x[i]
		s := p
		s += (c + d[i]) * xi
		for _, v := range x[i+1:] {
			s += c * v
		}
		dst[i] = s
		p += c * xi
	}
}

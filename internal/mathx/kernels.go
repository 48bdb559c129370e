package mathx

// The EqualOffDiag kernels work on the n×n symmetric matrix
// H = diag(d) + c·11ᵀ: every off-diagonal entry is c and diagonal entry i is
// d[i] + c. Sherman–Morrison gives H⁻¹ = D⁻¹ − γ·D⁻¹11ᵀD⁻¹ with
// γ = c/(1 + c·Σ1/d[i]), so the factor, the solve and the product each run
// in O(n). They agree with the dense kernels on the assembled matrix to
// rounding, not bit for bit. Every product that feeds an add, in the same
// statement or a later one, is wrapped in an explicit float64 conversion,
// which rounds it, so no target fuses the pair into a multiply-add.

// maxEqualOffDiagDen bounds the Sherman–Morrison denominator the factor
// accepts. The solve's rounding grows with den, and beyond about 1/ε its
// refinement step cannot bring the residual back: for a 1×1 matrix with
// c/d = 10⁴⁴ no digit of the solution is right. 2⁴⁰ keeps ε·den below
// 2⁻¹³; the constant-move MPC reaches about 3·10¹⁰ < 2³⁵ and its
// full-horizon first move about 5·10⁹ (130 cores at 40 W/GHz, every R
// weight at its 1e-6 floor).
const maxEqualOffDiagDen = 0x1p40

// EqualOffDiagFactor factors H = diag(d) + c·11ᵀ, n = len(d), for
// EqualOffDiagSolve: it writes w[i] = 1/d[i] (w may alias d) and returns
// the Sherman–Morrison denominator den = 1 + c·Σw[i] and true. It accepts
// exactly every d[i] > 0 with 0 < den ≤ 2⁴⁰: a positive den is when the
// formula describes a positive definite H, and the cap is where the solve
// stays accurate. Anything else, a NaN anywhere included, returns false,
// as a non-positive pivot makes CholeskyFactor fail, and leaves w partly
// written.
func EqualOffDiagFactor(c float64, d, w []float64) (den float64, ok bool) {
	if len(w) != len(d) {
		panic("mathx: EqualOffDiagFactor dimension mismatch")
	}
	var sumW float64
	for i, v := range d {
		if !(v > 0) {
			return 0, false
		}
		w[i] = 1 / v
		sumW += w[i]
	}
	den = 1 + float64(c*sumW)
	return den, den > 0 && den <= maxEqualOffDiagDen
}

// EqualOffDiagSolve overwrites b with the solution y of H·y = b, given the
// reciprocals w and the den EqualOffDiagFactor produced for (c, d):
// y[i] = (b[i] − s)·w[i] with s = γ·Σ b[j]·w[j] and γ = c/den.
//
// The exact s equals c·Σy. The computed one carries the rounding of a sum
// that may cancel, and H·y amplifies that error by den, so the solve then
// takes one step of refinement on s alone: with e = c·Σy − s it shifts s
// by e/den, y[i] by −(e/den)·w[i]. That leaves H·y − b at the size the
// rounding of c·Σy and d[i]·y[i] allows, as a backward-stable dense solve
// does. It only reads w.
func EqualOffDiagSolve(c, den float64, w, b []float64) {
	if len(w) != len(b) {
		panic("mathx: EqualOffDiagSolve dimension mismatch")
	}
	var sum float64
	for i, v := range b {
		sum += float64(v * w[i])
	}
	s := float64(c / den * sum)
	var sumY float64
	for i, v := range b {
		y := float64((v - s) * w[i])
		b[i] = y
		sumY += y
	}
	shift := (float64(c*sumY) - s) / den
	for i := range b {
		b[i] -= float64(shift * w[i])
	}
}

// EqualOffDiagMulVec computes dst = H·x for H = diag(d) + c·11ᵀ:
// dst[i] = c·Σx + d[i]·x[i]. dst may alias x.
func EqualOffDiagMulVec(dst []float64, c float64, d, x []float64) {
	if len(d) != len(x) || len(dst) != len(x) {
		panic("mathx: EqualOffDiagMulVec dimension mismatch")
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	cs := float64(c * sum)
	for i, v := range x {
		dst[i] = cs + float64(d[i]*v)
	}
}

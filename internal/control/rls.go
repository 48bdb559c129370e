package control

import (
	"errors"
	"math"
)

// RLS is a recursive-least-squares estimator with exponential forgetting
// for the server power model's frequency slope K (watts per GHz): the
// online model estimation the paper cites from the chip-level power
// control literature [27]. Each control period contributes one observation
// Δp ≈ K·ΔF (paper Eq. 4, with ΔF the summed per-core frequency move), and
// the estimate adapts if the true slope drifts (utilization changes, jobs
// arrive/leave).
type RLS struct {
	k        float64 // current estimate
	p        float64 // estimate covariance
	lambda   float64 // forgetting factor
	min, max float64 // physical bounds on the slope
	updates  int
}

// NewRLS returns an estimator starting at k0 with the given forgetting
// factor λ ∈ (0, 1] and physical bounds on the slope.
func NewRLS(k0, lambda, kMin, kMax float64) (*RLS, error) {
	switch {
	case lambda <= 0 || lambda > 1:
		return nil, errors.New("control: RLS forgetting factor must be in (0, 1]")
	case kMin <= 0 || kMax <= kMin:
		return nil, errors.New("control: need 0 < kMin < kMax")
	case k0 < kMin || k0 > kMax:
		return nil, errors.New("control: k0 outside [kMin, kMax]")
	}
	return &RLS{k: k0, p: 1, lambda: lambda, min: kMin, max: kMax}, nil
}

// K returns the current slope estimate.
func (r *RLS) K() float64 { return r.k }

// Observe absorbs one (ΔF, Δp) pair. Observations with too little
// excitation (|ΔF| below minExcitation) are ignored — they carry only
// noise. Non-finite inputs are ignored.
func (r *RLS) Observe(dFreqSumGHz, dPowerW, minExcitation float64) {
	phi := dFreqSumGHz
	if math.Abs(phi) < minExcitation ||
		math.IsNaN(phi) || math.IsInf(phi, 0) ||
		math.IsNaN(dPowerW) || math.IsInf(dPowerW, 0) {
		return
	}
	e := dPowerW - r.k*phi
	denom := r.lambda + phi*r.p*phi
	g := r.p * phi / denom
	r.k += g * e
	r.p = (r.p - g*phi*r.p) / r.lambda
	// Covariance and estimate guards keep the adaptation benign under
	// pathological inputs.
	if r.p > 1e6 {
		r.p = 1e6
	}
	if r.p < 1e-9 {
		r.p = 1e-9
	}
	if r.k < r.min {
		r.k = r.min
	}
	if r.k > r.max {
		r.k = r.max
	}
	r.updates++
}

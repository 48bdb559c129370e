package control

import (
	"errors"
	"math"
)

// UPSControllerConfig parameterizes the UPS power controller
// (paper Section IV-C): in every control period the UPS discharge must equal
// p_total − P_cb (or zero when total demand fits under the CB budget) so the
// breaker carries exactly its target.
type UPSControllerConfig struct {
	// PeriodS is the control period in seconds (fast: 1 s).
	PeriodS float64
	// TrimKi is the integral gain (W of request per W·s of CB error)
	// correcting residual error from duty-cycle quantization and monitor
	// noise. Zero yields pure feedforward.
	TrimKi float64
	// TrimLimitW bounds the integral trim authority.
	TrimLimitW float64
	// Feedforward selects whether the p_total − P_cb feedforward term is
	// used (disabled only by the A3 ablation, which then needs TrimKp).
	Feedforward bool
	// TrimKp is a proportional gain on the CB error, used mainly by the
	// pure-PI ablation variant.
	TrimKp float64
	// TargetMarginW derates the CB budget: the controller regulates to
	// P_cb − margin so that one-period measurement lag and duty-cycle
	// quantization produce errors *around* a point safely below the
	// budget instead of straddling it.
	TargetMarginW float64
}

// DefaultUPSControllerConfig returns the paper-faithful controller:
// feedforward with a small integral trim.
func DefaultUPSControllerConfig() UPSControllerConfig {
	return UPSControllerConfig{
		PeriodS:       1,
		TrimKi:        0.2,
		TrimLimitW:    400,
		Feedforward:   true,
		TrimKp:        0,
		TargetMarginW: 30,
	}
}

// Validate reports structural errors in the configuration.
func (c UPSControllerConfig) Validate() error {
	switch {
	case c.PeriodS <= 0:
		return errors.New("control: PeriodS must be positive")
	case c.TrimKi < 0 || c.TrimKp < 0:
		return errors.New("control: trim gains must be non-negative")
	case c.TrimLimitW < 0:
		return errors.New("control: TrimLimitW must be non-negative")
	case c.TargetMarginW < 0:
		return errors.New("control: TargetMarginW must be non-negative")
	case !c.Feedforward && c.TrimKi == 0 && c.TrimKp == 0:
		return errors.New("control: disabled feedforward requires trim gains")
	}
	return nil
}

// UPSController computes the battery discharge request each period.
type UPSController struct {
	cfg  UPSControllerConfig
	trim float64
}

// NewUPSController returns a controller or an error for invalid config.
func NewUPSController(cfg UPSControllerConfig) (*UPSController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &UPSController{cfg: cfg}, nil
}

// Step returns the discharge power to request from the UPS for the next
// period, given the measured rack total and measured CB power from the last
// period and the allocator's CB budget P_cb. Non-negative by construction:
// the UPS never absorbs power here (recharge is scheduled off-sprint).
func (u *UPSController) Step(measuredTotalW, measuredCBW, pcbTargetW float64) float64 {
	// A NaN anywhere would poison the integral trim permanently; with no
	// usable inputs the only safe request is zero (the breaker-side
	// overload protection still applies).
	if math.IsNaN(measuredTotalW) || math.IsNaN(measuredCBW) || math.IsNaN(pcbTargetW) {
		return 0
	}
	pcbTargetW -= u.cfg.TargetMarginW
	cbErr := measuredCBW - pcbTargetW // positive: breaker over budget

	var req float64
	if u.cfg.Feedforward {
		req = measuredTotalW - pcbTargetW
	}
	req += u.cfg.TrimKp * cbErr

	u.trim += u.cfg.TrimKi * cbErr * u.cfg.PeriodS
	if u.trim > u.cfg.TrimLimitW {
		u.trim = u.cfg.TrimLimitW
	} else if u.trim < -u.cfg.TrimLimitW {
		u.trim = -u.cfg.TrimLimitW
	}
	req += u.trim

	if req < 0 {
		// Anti-windup: when no discharge is needed, bleed the trim so
		// it cannot push the breaker under budget later.
		u.trim *= 0.5
		return 0
	}
	return req
}

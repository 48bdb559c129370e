package control

import (
	"fmt"
	"math"
)

// This file holds the serializable state snapshots of every stateful
// controller in the package, for the crash-safe checkpoint subsystem
// (DESIGN.md §11). Exports are cheap deep copies; restores range-check
// every field against the live configuration so a corrupt snapshot can
// never install a state the controller could not have reached itself.

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// GuardState snapshots a MeasurementGuard.
type GuardState struct {
	Held       float64
	HaveHeld   bool
	PrevRaw    float64
	HavePrev   bool
	Identical  int
	Confidence float64
}

// ExportState captures the guard's mutable state.
func (g *MeasurementGuard) ExportState() GuardState {
	return GuardState{
		Held:       g.held,
		HaveHeld:   g.haveHeld,
		PrevRaw:    g.prevRaw,
		HavePrev:   g.havePrev,
		Identical:  g.identical,
		Confidence: g.confidence,
	}
}

// RestoreState overwrites the guard's mutable state from a snapshot.
func (g *MeasurementGuard) RestoreState(st GuardState) error {
	switch {
	case !finite(st.Held) && st.HaveHeld:
		return fmt.Errorf("control: guard snapshot held value %g not finite", st.Held)
	case !finite(st.PrevRaw) && st.HavePrev:
		return fmt.Errorf("control: guard snapshot previous reading %g not finite", st.PrevRaw)
	case math.IsNaN(st.Confidence) || st.Confidence < 0 || st.Confidence > 1:
		return fmt.Errorf("control: guard snapshot confidence %g outside [0, 1]", st.Confidence)
	case st.Identical < 0:
		return fmt.Errorf("control: guard snapshot identical count %d is negative", st.Identical)
	}
	g.held = st.Held
	g.haveHeld = st.HaveHeld
	g.prevRaw = st.PrevRaw
	g.havePrev = st.HavePrev
	g.identical = st.Identical
	g.confidence = st.Confidence
	return nil
}

// RLSState snapshots an RLS estimator.
type RLSState struct {
	K       float64
	P       float64
	Updates int
}

// ExportState captures the estimator's mutable state.
func (r *RLS) ExportState() RLSState {
	return RLSState{K: r.k, P: r.p, Updates: r.updates}
}

// RestoreState overwrites the estimator's mutable state from a snapshot.
// The slope must respect the live physical bounds and the covariance the
// same guards Observe enforces.
func (r *RLS) RestoreState(st RLSState) error {
	switch {
	case math.IsNaN(st.K) || st.K < r.min || st.K > r.max:
		return fmt.Errorf("control: RLS snapshot slope %g outside [%g, %g]", st.K, r.min, r.max)
	case math.IsNaN(st.P) || st.P < 1e-9 || st.P > 1e6:
		return fmt.Errorf("control: RLS snapshot covariance %g outside [1e-9, 1e6]", st.P)
	case st.Updates < 0:
		return fmt.Errorf("control: RLS snapshot update count %d is negative", st.Updates)
	}
	r.k = st.K
	r.p = st.P
	r.updates = st.Updates
	return nil
}

// Trim returns the UPS controller's integral trim in watts.
func (u *UPSController) Trim() float64 { return u.trim }

// RestoreTrim sets the integral trim from a snapshot, clamped to the
// configured authority; non-finite values reset the trim to zero.
func (u *UPSController) RestoreTrim(trimW float64) {
	if !finite(trimW) {
		trimW = 0
	}
	u.trim = math.Max(-u.cfg.TrimLimitW, math.Min(u.cfg.TrimLimitW, trimW))
}

// Integral returns the PI controller's integral state.
func (p *PI) Integral() float64 { return p.integral }

// RestoreIntegral sets the integral state from a snapshot, clamped to the
// same ±1e6 band the anti-windup guard enforces; non-finite values reset
// the integral to zero.
func (p *PI) RestoreIntegral(v float64) {
	if !finite(v) {
		v = 0
	}
	p.integral = math.Max(-1e6, math.Min(1e6, v))
}

package core

import (
	"math"

	"sprintcon/internal/sim"
)

// The runtime safety-invariant supervisor (DESIGN.md §11) re-checks every
// tick the guarantees the rest of the controller maintains by construction:
//
//  1. the breaker's trip-curve margin is never exhausted;
//  2. the UPS never discharges below its depth-of-discharge floor;
//  3. commanded batch frequencies respect the Eq. (9) bounds;
//  4. batch deadlines remain feasible under the current budget.
//
// The escalation response — stop overloading, fall to CB-only, end the
// sprint — is the paper's degradation ladder, already driven by updateMode
// the tick a violation is first seen. The supervisor's job is the layer
// beneath: count violations that persist *despite* that enforcement (a trip
// that happened anyway, a depleted battery still delivering, an
// out-of-bounds frequency about to be actuated), clamp what it can, and
// make each breach kind visible in the event log and telemetry. In a
// healthy run every counter stays zero except deadline feasibility, which
// reports overload demand rather than a controller fault.

// invariantState is the supervisor's cumulative breach counters. Each
// breach kind is logged once per run, when its counter first reaches 1;
// the counters travel through checkpoints, so a restored controller does
// not log a breach its run already reported.
type invariantState struct {
	cbMargin   int
	socFloor   int
	freqBounds int
	deadline   int
}

// InvariantReport is the supervisor's cumulative breach count per
// invariant. Counters survive controller restarts through checkpoints, so a
// resumed run reports run-lifetime totals.
type InvariantReport struct {
	// CBMargin counts ticks on which the breaker's trip-curve budget was
	// exhausted (a trip, or thermal fraction ≥ 1) — the margin invariant
	// failed despite the near-trip escalation.
	CBMargin int
	// SoCFloor counts ticks on which a depleted UPS was still delivering
	// power — discharge past the DoD floor that escalation should have
	// stopped.
	SoCFloor int
	// FreqBounds counts commanded frequencies outside the Eq. (9) box
	// (clamped before actuation).
	FreqBounds int
	// Deadline counts control periods in which some batch job's required
	// frequency already exceeded peak — a miss no budget can prevent.
	Deadline int
}

// InvariantViolations returns the supervisor's cumulative breach counts.
func (s *SprintCon) InvariantViolations() InvariantReport {
	return InvariantReport{
		CBMargin:   s.inv.cbMargin,
		SoCFloor:   s.inv.socFloor,
		FreqBounds: s.inv.freqBounds,
		Deadline:   s.inv.deadline,
	}
}

// checkTickInvariants runs the per-tick plant invariants. It is called
// after updateMode, so the degradation ladder has already escalated on
// anything seen this tick; what the supervisor records here are breaches
// that enforcement did not prevent.
func (s *SprintCon) checkTickInvariants(env *sim.Env, snap sim.Snapshot) {
	if snap.CBTripped || snap.CBThermalFraction >= 1 {
		s.inv.cbMargin++
		s.everNearTrip = true // defense in depth; updateMode already escalated
		if s.inv.cbMargin == 1 && env.Events != nil {
			env.Events.Logf("invariant", "CB trip-curve margin exhausted (thermal %.2f, tripped %v)",
				snap.CBThermalFraction, snap.CBTripped)
		}
	}
	if snap.UPSDepleted {
		s.everDepleted = true
		if snap.UPSPowerW > 1e-9 {
			s.inv.socFloor++
			if s.inv.socFloor == 1 && env.Events != nil {
				env.Events.Logf("invariant", "UPS delivering %.0f W below the DoD floor (SoC %.3f)",
					snap.UPSPowerW, snap.UPSSoC)
			}
		}
	}
	if s.tm.enabled {
		s.tm.invBreaches.Set(float64(s.inv.cbMargin + s.inv.socFloor + s.inv.freqBounds))
	}
}

// checkControlInvariants verifies the frequencies about to be actuated
// against the Eq. (9) bounds — clamping any violation so it never reaches
// the rack — and records deadline infeasibility for this control period.
func (s *SprintCon) checkControlInvariants(env *sim.Env, next []float64, urgency float64) {
	const eps = 1e-6
	for i, f := range next {
		if math.IsNaN(f) || f < s.fmin-eps || f > s.fmax+eps {
			s.inv.freqBounds++
			if math.IsNaN(f) {
				next[i] = s.fmin
			} else {
				next[i] = clamp(f, s.fmin, s.fmax)
			}
			if s.inv.freqBounds == 1 && env.Events != nil {
				env.Events.Logf("invariant", "commanded frequency %.3f GHz outside [%.2f, %.2f]: clamped",
					f, s.fmin, s.fmax)
			}
		}
	}
	if urgency > 1+1e-9 {
		s.inv.deadline++
		if s.inv.deadline == 1 && env.Events != nil {
			env.Events.Logf("invariant", "deadline infeasible: a job needs %.0f%% of peak frequency from now on",
				100*urgency)
		}
	}
}

package core

import (
	"math"

	"sprintcon/internal/control"
	"sprintcon/internal/sim"
)

// HardeningConfig switches SprintCon's fault defenses (on by default). Each
// defense maps to one class of injected fault (DESIGN.md §8):
//
//   - the measurement guard (stale/NaN/spike detection with
//     last-known-good + model-decay fallback) covers monitor dropout,
//     freeze and bias;
//   - the confidence-driven overload suspension (watchdog) guarantees the
//     supervisor never schedules a breaker overload on telemetry it cannot
//     trust, failing safe to the rated budget within one control period;
//   - the UPS delivery watchdog covers discharge-path failures and lying
//     SoC gauges: a battery that stops delivering what was requested is
//     treated exactly like a depleted one, escalating the paper's
//     degradation ladder;
//   - actuator-effectiveness monitoring covers stuck/lagging DVFS and
//     crashed servers: cores that stop responding are excluded from the
//     MPC move set and probed periodically for recovery.
type HardeningConfig struct {
	// Disabled turns every defense off, restoring the paper-faithful
	// (fault-oblivious) controller. Used by ablations and E18.
	Disabled bool
}

// Hardening tuning: telemetry loss suspends overloading within two ticks
// (well inside one 4 s control period), a failed UPS path is declared after
// three betrayed requests, and a stuck actuator is excluded after two
// unresponsive control periods.
const (
	// minConfidence suspends CB overloading when measurement confidence
	// falls below it; recoverConfidence re-enables overloading once
	// confidence climbs back above it (hysteresis).
	minConfidence     float64 = 0.35
	recoverConfidence float64 = 0.95
	// upsFailTicks consecutive ticks in which the UPS delivered less than
	// upsFailFrac of a request exceeding upsFailMinReqW mark the discharge
	// path as failed (sticky).
	upsFailTicks   int     = 3
	upsFailFrac    float64 = 0.25
	upsFailMinReqW float64 = 50
	// stuckDetectPeriods control periods in which a commanded move larger
	// than stuckCmdEpsGHz produces an actual move smaller than
	// stuckActEpsGHz lock the core out of the move set. Every
	// stuckProbePeriods periods a locked core receives a probe move to
	// detect actuator recovery.
	stuckDetectPeriods int     = 2
	stuckCmdEpsGHz     float64 = 0.09
	stuckActEpsGHz     float64 = 0.04
	stuckProbePeriods  int     = 8
)

// hardenState is the per-sprint mutable state of the defenses.
type hardenState struct {
	guard    *control.MeasurementGuard
	degraded bool // overload suspended on low measurement confidence

	upsLastReqW  float64
	upsFailTicks int
	upsFailed    bool // sticky: the discharge path is gone

	lastApplied []float64 // per batch core, last frequency the rack applied
	stuckCount  []int
	locked      []bool
	probeLeft   []int
	maskBuf     []bool // reused lockedMask output (zero-alloc tick contract)
}

// enabled reports whether the defenses are active this sprint.
func (h *hardenState) enabled() bool { return h != nil && h.guard != nil }

// startHardening initializes the defense state for a fresh sprint.
func (s *SprintCon) startHardening(env *sim.Env) {
	if s.cfg.Harden.Disabled {
		s.hd = nil
		return
	}
	n := len(env.Rack.BatchCores())
	s.hd = &hardenState{
		// A noise-free monitor legitimately repeats readings; exact-
		// repeat freeze detection would false-positive immediately.
		guard:       control.NewMeasurementGuard(s.scn.Rack.MonitorNoiseStd != 0),
		lastApplied: append([]float64(nil), env.Rack.BatchFreqs()...),
		stuckCount:  make([]int, n),
		locked:      make([]bool, n),
		probeLeft:   make([]int, n),
	}
}

// modelTotalW is the design model's estimate of the rack's total power from
// the commanded batch frequencies and the interactive estimator — the decay
// target the measurement guard falls back to during telemetry loss.
func (s *SprintCon) modelTotalW(pInterEstW float64) float64 {
	p := s.idleEstW + pInterEstW
	for _, f := range s.cmdFreqs {
		p += s.kModel*f + s.cSharePer
	}
	return p
}

// guardMeasurement filters the rack power reading, maintains confidence and
// drives the overload-suspension watchdog. It returns the value every
// downstream consumer must use instead of the raw reading.
func (s *SprintCon) guardMeasurement(env *sim.Env, rawW, pInterEstW float64) float64 {
	model := s.modelTotalW(pInterEstW)
	filtered, ok := s.hd.guard.Step(rawW, model)
	if !ok {
		s.tm.guardRejected.Inc()
	}
	s.ob.sensorGapW = math.Abs(filtered - model)
	conf := s.hd.guard.Confidence()
	s.tm.guardConf.Set(conf)
	s.allocator.SetConfidence(conf)
	switch {
	case !s.hd.degraded && conf < minConfidence:
		s.hd.degraded = true
		if env.Events != nil {
			env.Events.Logf("watchdog", "measurement confidence %.2f < %.2f: overload suspended, serving last-known-good %.0f W", conf, minConfidence, filtered)
		}
	case s.hd.degraded && conf >= recoverConfidence:
		s.hd.degraded = false
		if env.Events != nil {
			env.Events.Logf("watchdog", "measurement confidence %.2f restored: overload re-enabled", conf)
		}
	}
	return filtered
}

// watchUPS compares last tick's delivered battery power against what was
// requested. A path that repeatedly delivers a small fraction of a
// substantial request has failed, whatever the SoC gauge claims; the
// supervisor then treats the UPS as depleted (sticky), which removes every
// control decision that depends on battery cover.
func (s *SprintCon) watchUPS(env *sim.Env, snap sim.Snapshot) {
	if s.hd.upsFailed {
		return
	}
	req := s.hd.upsLastReqW
	if req > upsFailMinReqW && snap.UPSPowerW < upsFailFrac*req {
		s.hd.upsFailTicks++
		if s.hd.upsFailTicks >= upsFailTicks {
			s.hd.upsFailed = true
			if env.Events != nil {
				env.Events.Logf("watchdog", "UPS delivered %.0f W of a %.0f W request for %d ticks: discharge path treated as failed", snap.UPSPowerW, req, s.hd.upsFailTicks)
			}
		}
	} else {
		s.hd.upsFailTicks = 0
	}
}

// lockedMask returns the per-batch-core exclusion mask for this control
// period: cores locked by stuck detection plus cores on servers that are
// known-offline right now (heartbeat loss is instantly visible, unlike a
// silently stuck actuator). It also injects probe moves for locked cores
// into next, so actuator recovery is eventually observed.
func (s *SprintCon) lockedMask(env *sim.Env) []bool {
	if len(s.hd.maskBuf) != len(s.hd.locked) {
		s.hd.maskBuf = make([]bool, len(s.hd.locked))
	}
	mask := s.hd.maskBuf
	for i, ref := range env.Rack.BatchCores() {
		mask[i] = s.hd.locked[i] || env.Rack.ServerOffline(ref.Server)
	}
	return mask
}

// observeActuation runs stuck/recovery detection over one control period's
// commanded and applied frequencies, and plants probe moves for the next
// period where due.
func (s *SprintCon) observeActuation(env *sim.Env, next, applied []float64) {
	for i, ref := range env.Rack.BatchCores() {
		if env.Rack.ServerOffline(ref.Server) {
			// A dark server's actuators are unreachable by definition;
			// don't let it pollute the stuck statistics.
			s.hd.stuckCount[i] = 0
			s.hd.lastApplied[i] = applied[i]
			continue
		}
		cmdMove := math.Abs(next[i] - s.hd.lastApplied[i])
		actMove := math.Abs(applied[i] - s.hd.lastApplied[i])
		switch {
		case cmdMove > stuckCmdEpsGHz && actMove < stuckActEpsGHz:
			s.hd.stuckCount[i]++
			if !s.hd.locked[i] && s.hd.stuckCount[i] >= stuckDetectPeriods {
				s.hd.locked[i] = true
				s.hd.probeLeft[i] = stuckProbePeriods
				if env.Events != nil {
					env.Events.Logf("watchdog", "batch core %s unresponsive for %d periods (commanded %.2f GHz, stayed %.2f GHz): excluded from MPC move set", ref, s.hd.stuckCount[i], next[i], applied[i])
				}
			}
		case cmdMove > stuckCmdEpsGHz:
			s.hd.stuckCount[i] = 0
			if s.hd.locked[i] {
				s.hd.locked[i] = false
				if env.Events != nil {
					env.Events.Logf("watchdog", "batch core %s actuator recovered: rejoining MPC move set", ref)
				}
			}
		}
		s.hd.lastApplied[i] = applied[i]
	}
}

// applyProbes overrides the commanded frequencies of locked cores: hold the
// last applied value, except on probe periods where a deliberate nudge
// tests whether the actuator answers again.
func (s *SprintCon) applyProbes(next []float64) {
	for i := range next {
		if !s.hd.locked[i] {
			continue
		}
		s.hd.probeLeft[i]--
		if s.hd.probeLeft[i] <= 0 {
			s.hd.probeLeft[i] = stuckProbePeriods
			nudge := 2 * stuckCmdEpsGHz
			if s.hd.lastApplied[i] > (s.fmin+s.fmax)/2 {
				nudge = -nudge
			}
			next[i] = clamp(s.hd.lastApplied[i]+nudge, s.fmin, s.fmax)
		} else {
			next[i] = s.hd.lastApplied[i]
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/sim"
)

// This file implements sim.Checkpointable for SprintCon: the export half
// runs every checkpoint capture, the restore half runs once per controller
// restart. Restore never actuates the rack — the plant kept running while
// the controller was down, and the first Tick after restore re-issues every
// command from the restored state.

func finiteF(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ExportCheckpoint captures the controller's complete mutable state at
// simulation time now. The returned value owns its slices (deep copies), so
// it stays valid however long the store retains it.
func (s *SprintCon) ExportCheckpoint(now float64) checkpoint.ControllerState {
	st := checkpoint.ControllerState{
		CapturedAtS:    now,
		Mode:           int(s.mode),
		EverNearTrip:   s.everNearTrip,
		EverDepleted:   s.everDepleted,
		FailSafeUntilS: s.failSafeUntil,
		LastCtlS:       s.lastCtl,
		CurPCbW:        s.curPCb,
		CurPBatchW:     s.curPBatch,
		CmdFreqsGHz:    append([]float64(nil), s.cmdFreqs...),
		KModel:         s.kModel,
		PrevPfbW:       s.prevPfb,
		LastMoveSum:    s.lastMoveSum,
		HavePrev:       s.havePrev,
		PIIntegral:     s.pi.Integral(),
		UPSTrimW:       s.upsctl.Trim(),
		Alloc:          s.allocator.ExportState(),
		InvCBMargin:    s.inv.cbMargin,
		InvSoCFloor:    s.inv.socFloor,
		InvFreqBounds:  s.inv.freqBounds,
		InvDeadline:    s.inv.deadline,
	}
	if s.rls != nil {
		st.HasRLS = true
		st.RLS = s.rls.ExportState()
	}
	if s.hd.enabled() {
		st.HasHarden = true
		st.Harden = checkpoint.HardenState{
			Guard:       s.hd.guard.ExportState(),
			Degraded:    s.hd.degraded,
			UPSLastReqW: s.hd.upsLastReqW,
			UPSFailTick: s.hd.upsFailTicks,
			UPSFailed:   s.hd.upsFailed,
			LastApplied: append([]float64(nil), s.hd.lastApplied...),
			StuckCount:  append([]int(nil), s.hd.stuckCount...),
			Locked:      append([]bool(nil), s.hd.locked...),
			ProbeLeft:   append([]int(nil), s.hd.probeLeft...),
		}
	}
	return st
}

// RestoreCheckpoint rebuilds the controller for env/scn and overlays the
// snapshot state, resuming control at simulation time now. A nil state is
// the fail-safe restart (checkpoint missing, stale or corrupt): the
// controller comes up with the worst-case-safe assumptions — rated CB
// budget, overloads suspended for a full breaker recovery time — and
// re-estimates from live telemetry. Every snapshot field is range-checked
// against the live configuration before anything is installed, so no
// snapshot, however corrupt, can restore an unsafe overload-enabled state.
func (s *SprintCon) RestoreCheckpoint(env *sim.Env, scn sim.Scenario, st *checkpoint.ControllerState, now float64) error {
	if err := s.initCommon(env, scn); err != nil {
		return err
	}

	if st == nil {
		// Fail-safe restart. The burst schedule is re-announced for
		// whatever sprint time remains, but the fail-safe hold keeps the
		// CB budget at the rating until the breaker's worst-case thermal
		// state has drained.
		remain := math.Max(0, scn.BurstDurationS-now)
		s.allocator.StartBurst(now, remain, s.idleEstW, s.interactiveEstimate(env, now))
		s.curPCb = s.allocator.PCb(now)
		s.curPBatch = clamp(s.allocator.PBatchAt(now), s.pBatchMin, s.pBatchMax)
		s.enterFailSafe(env, now, "state re-estimated from live telemetry")
		return nil
	}

	if err := s.validateControllerState(st, now); err != nil {
		return err
	}

	s.mode = Mode(st.Mode)
	s.everNearTrip = st.EverNearTrip
	s.everDepleted = st.EverDepleted
	s.failSafeUntil = st.FailSafeUntilS
	s.lastCtl = st.LastCtlS
	s.curPCb = st.CurPCbW
	s.inv.cbMargin = st.InvCBMargin
	s.inv.socFloor = st.InvSoCFloor
	s.inv.freqBounds = st.InvFreqBounds
	s.inv.deadline = st.InvDeadline

	// Model slope first: the batch power bounds, the MPC and the PI are
	// all derived from it.
	s.kModel = st.KModel
	if err := s.rebuildControllers(len(s.cmdFreqs)); err != nil {
		return err
	}
	// The batch budget's reachable range is [0, pBatchMax]: the degraded
	// CB-only mode legitimately targets below the linear-model floor.
	s.curPBatch = clamp(st.CurPBatchW, 0, s.pBatchMax)
	for i, f := range st.CmdFreqsGHz {
		s.cmdFreqs[i] = clamp(f, s.fmin, s.fmax)
	}
	s.prevPfb = st.PrevPfbW
	s.lastMoveSum = st.LastMoveSum
	s.havePrev = st.HavePrev
	s.pi.RestoreIntegral(st.PIIntegral)
	s.upsctl.RestoreTrim(st.UPSTrimW)
	if err := s.allocator.RestoreState(st.Alloc); err != nil {
		return err
	}
	if s.rls != nil {
		if err := s.rls.RestoreState(st.RLS); err != nil {
			return err
		}
	}
	if s.hd.enabled() {
		h := &st.Harden
		if err := s.hd.guard.RestoreState(h.Guard); err != nil {
			return err
		}
		s.hd.degraded = h.Degraded
		s.hd.upsLastReqW = h.UPSLastReqW
		s.hd.upsFailTicks = h.UPSFailTick
		s.hd.upsFailed = h.UPSFailed
		copy(s.hd.lastApplied, h.LastApplied)
		copy(s.hd.stuckCount, h.StuckCount)
		copy(s.hd.locked, h.Locked)
		s.hd.recountLocked(env.Rack.BatchCores())
		copy(s.hd.probeLeft, h.ProbeLeft)
	}

	// Clock skew: a snapshot captured after "now" describes a future the
	// plant has not reached (rejected above); one captured long before it
	// describes a plant that evolved unobserved. The burst schedule stays
	// anchored to its absolute start time either way — rebasing it would
	// re-enter an overload phase whose thermal budget the breaker already
	// spent — but a stale restore additionally holds the fail-safe budget
	// until the unobserved window's worst case has drained.
	if skew := now - st.CapturedAtS; skew > s.cfg.ControlPeriodS+1e-9 {
		s.enterFailSafe(env, now, fmt.Sprintf("checkpoint %.0f s stale", skew))
	}
	return nil
}

// validateControllerState range-checks a snapshot against the freshly
// initialized controller (so n, fmin/fmax and the configuration flags are
// the live ones).
func (s *SprintCon) validateControllerState(st *checkpoint.ControllerState, now float64) error {
	n := len(s.cmdFreqs)
	switch {
	case !finiteF(st.CapturedAtS) || st.CapturedAtS < 0:
		return fmt.Errorf("core: snapshot capture time %g invalid", st.CapturedAtS)
	case st.CapturedAtS > now+1e-9:
		return fmt.Errorf("core: snapshot captured at t=%g s, after the restore time t=%g s", st.CapturedAtS, now)
	case st.Mode < int(ModeNormal) || st.Mode > int(ModeEnded):
		return fmt.Errorf("core: snapshot mode %d unknown", st.Mode)
	case math.IsNaN(st.FailSafeUntilS) || math.IsInf(st.FailSafeUntilS, 1):
		return fmt.Errorf("core: snapshot fail-safe deadline %g invalid", st.FailSafeUntilS)
	case math.IsNaN(st.LastCtlS) || math.IsInf(st.LastCtlS, 1):
		return fmt.Errorf("core: snapshot control timestamp %g invalid", st.LastCtlS)
	case st.LastCtlS > now+1e-9:
		return fmt.Errorf("core: snapshot control timestamp %g s is in the future", st.LastCtlS)
	case math.IsNaN(st.CurPCbW) || math.IsInf(st.CurPCbW, -1) || st.CurPCbW < 0:
		return fmt.Errorf("core: snapshot CB budget %g W invalid", st.CurPCbW)
	case !finiteF(st.CurPBatchW) || st.CurPBatchW < 0:
		return fmt.Errorf("core: snapshot batch budget %g W invalid", st.CurPBatchW)
	case len(st.CmdFreqsGHz) != n:
		return fmt.Errorf("core: snapshot has %d commanded frequencies, rack has %d batch cores", len(st.CmdFreqsGHz), n)
	case !finiteF(st.KModel) || st.KModel <= 0:
		return fmt.Errorf("core: snapshot model slope %g invalid", st.KModel)
	case !finiteF(st.PrevPfbW) || !finiteF(st.LastMoveSum):
		return fmt.Errorf("core: snapshot estimator state not finite")
	case st.InvCBMargin < 0 || st.InvSoCFloor < 0 || st.InvFreqBounds < 0 || st.InvDeadline < 0:
		return fmt.Errorf("core: snapshot invariant counters negative")
	case st.HasRLS != (s.rls != nil):
		return fmt.Errorf("core: snapshot online-estimation state (%v) disagrees with the configuration (%v)", st.HasRLS, s.rls != nil)
	case st.HasHarden != s.hd.enabled():
		return fmt.Errorf("core: snapshot hardening state (%v) disagrees with the configuration (%v)", st.HasHarden, s.hd.enabled())
	}
	const eps = 1e-6
	for i, f := range st.CmdFreqsGHz {
		if !finiteF(f) || f < s.fmin-eps || f > s.fmax+eps {
			return fmt.Errorf("core: snapshot commanded frequency %d = %g GHz outside [%g, %g]", i, f, s.fmin, s.fmax)
		}
	}
	if st.HasHarden {
		h := &st.Harden
		if len(h.LastApplied) != n || len(h.StuckCount) != n || len(h.Locked) != n || len(h.ProbeLeft) != n {
			return errors.New("core: snapshot hardening arrays sized for a different rack")
		}
		if !finiteF(h.UPSLastReqW) || h.UPSLastReqW < 0 || h.UPSFailTick < 0 {
			return errors.New("core: snapshot UPS watchdog state invalid")
		}
		for i := 0; i < n; i++ {
			if !finiteF(h.LastApplied[i]) || h.StuckCount[i] < 0 || h.ProbeLeft[i] < 0 {
				return fmt.Errorf("core: snapshot actuator watchdog state for core %d invalid", i)
			}
		}
	}
	return nil
}

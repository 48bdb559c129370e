package core

import (
	"math"

	"sprintcon/internal/alloc"
	"sprintcon/internal/engine"
	"sprintcon/internal/sim"
)

// This file implements the event engine's quiescent-span protocol for
// SprintCon (sim.QuiescentPolicy, DESIGN.md §15). The engine certifies an
// exact floating-point fixed point by observing the state below stay
// bit-identical for more than one full adaptation cadence, then closes
// spans analytically with AdvanceQuiescent instead of calling Tick every
// second.
//
// The state covers every mutable field a Tick can read or write, with two
// deliberate exclusions, both replayed exactly by AdvanceQuiescent rather
// than certified stable:
//
//   - lastCtl and the allocator's adaptation window (lastUpdate, samples,
//     samplesHigh): these advance even at a fixed point, so AdvanceQuiescent
//     re-runs ObserveHeadroom each tick and the control-period firings
//     (deadlinePowerFloor + MaybeUpdatePBatch) at the real cadence;
//   - batch-job progress: jobs keep executing through a span (the rack
//     replays them with AdvanceBatchTicks), so job state cannot be compared.
//     Instead, all-jobs-completed is a hard eligibility condition: a
//     completed job's control weight and deadline floor are constants,
//     while an incomplete job's RWeight(now) varies with now and would
//     change the MPC's inputs one control period before the compared
//     state noticed.
//
// Everything else the skipped Tick would have written is rewritten
// bit-identically at a certified fixed point (that is what state equality
// across consecutive ticks means), so not calling it leaves the state
// exact.

// QuiescentState implements sim.QuiescentPolicy: it appends the
// controller's mutable state to st and reports whether the policy
// is structurally eligible for span fast-forwarding at all. Ineligible
// states — an active external budget (retightened by a coordinator outside
// this policy's view), online model estimation, a pending decision record,
// live telemetry, or any incomplete batch job — return false without
// touching st.
func (s *SprintCon) QuiescentState(env *sim.Env, st *engine.State) bool {
	if s.ext.Active || s.rls != nil || s.pending || s.tm.enabled {
		return false
	}
	if !env.Rack.AllBatchJobsCompleted() {
		return false
	}
	st.Int(int(s.mode))
	st.Bool(s.everNearTrip)
	st.Bool(s.everDepleted)
	st.F64(s.failSafeUntil)
	st.F64(s.curPCb)
	st.F64(s.curPBatch)
	st.F64(s.kModel)
	st.F64(s.prevPfb)
	st.F64(s.lastMoveSum)
	st.Bool(s.havePrev)
	st.F64s(s.cmdFreqs)
	st.Int(s.inv.cbMargin)
	st.Int(s.inv.socFloor)
	st.Int(s.inv.freqBounds)
	st.Int(s.inv.deadline)
	s.allocator.QuiescentState(st)
	s.mpc.QuiescentState(st)
	s.pi.QuiescentState(st)
	s.upsctl.QuiescentState(st)
	if s.hd.enabled() {
		st.Bool(true)
		s.hd.guard.QuiescentState(st)
		st.Bool(s.hd.degraded)
		st.F64(s.hd.upsLastReqW)
		st.Int(s.hd.upsFailTicks)
		st.Bool(s.hd.upsFailed)
		st.F64s(s.hd.lastApplied)
		st.Ints(s.hd.stuckCount)
		st.Bools(s.hd.locked)
		st.Ints(s.hd.probeLeft)
	} else {
		st.Bool(false)
	}
	return true
}

// QuiescenceCadenceTicks implements sim.QuiescentPolicy: the number of
// consecutive bit-identical states required before a fixed point is
// certified. It must strictly exceed the controller's slowest internal
// period — the allocator's P_batch adaptation window — measured in ticks,
// plus one more control period so the post-adaptation state is observed
// too; a shorter streak could certify a state that still changes when the
// next adaptation fires.
func (s *SprintCon) QuiescenceCadenceTicks(dt float64) int {
	ctlTicks := int(math.Ceil(s.cfg.ControlPeriodS / dt))
	if ctlTicks < 1 {
		ctlTicks = 1
	}
	pbCtl := 1
	if s.cfg.ControlPeriodS > 0 {
		if pbCtl = int(math.Ceil(alloc.PBatchPeriodS / s.cfg.ControlPeriodS)); pbCtl < 1 {
			pbCtl = 1
		}
	}
	return pbCtl*ctlTicks + ctlTicks
}

// QuiescentHorizonTicks implements sim.QuiescentPolicy: a conservative
// count of upcoming ticks over which the policy's scheduled budget cannot
// move — the allocator's overload/recovery square wave and the post-restart
// fail-safe expiry are the two time-driven edges. Capped at maxTicks.
func (s *SprintCon) QuiescentHorizonTicks(now, dt float64, maxTicks int) int {
	// A span replays control firings under the certified budget, so it may
	// only open while the schedule still evaluates to the budget the
	// controller last applied. The two diverge exactly when a schedule edge
	// (overload onset/exit, fail-safe expiry) falls on the span's opening
	// tick: the state streak was certified on pre-edge ticks and cannot
	// see it. Forcing a zero horizon makes the edge tick run as a real
	// tick, whose control firing re-reads the schedule.
	if s.effectivePCb(now) != s.curPCb {
		return 0
	}
	min := maxTicks
	consider := func(limit float64) {
		if math.IsInf(limit, 1) || limit <= now {
			return
		}
		// The last safe tick must stay strictly before the edge; the −1
		// absorbs the boundary tick itself.
		if n := int((limit-now)/dt) - 1; n < min {
			min = n
		}
	}
	// In ModeEnded the budget is pinned at the breaker rating, so the
	// allocator's overload/recovery square wave cannot reach the
	// controller and its edges need not bound spans.
	if s.mode != ModeEnded {
		consider(s.allocator.NextBudgetEdge(now))
	}
	if now < s.failSafeUntil {
		consider(s.failSafeUntil)
	}
	if min < 0 {
		min = 0
	}
	return min
}

// AdvanceQuiescent implements sim.QuiescentPolicy: it replays the
// controller state QuiescentState excludes across n fast-forwarded ticks
// at times (step0+k)·dt, k = 0..n−1, bit-identically to n real Tick calls
// at a certified fixed point. Only three mutations survive at a fixed point:
// the per-tick headroom observation, the control-period clock, and the
// periodic P_batch adaptation — everything else Tick writes is rewritten
// identically and is skipped.
func (s *SprintCon) AdvanceQuiescent(env *sim.Env, step0 int, dt float64, n int) {
	// Pure function of rack state the span holds constant (interactive
	// utilizations and frequencies), so one evaluation serves every tick.
	pInterEst := env.Rack.EstimateInteractivePower()
	for k := 0; k < n; k++ {
		now := float64(step0+k) * dt
		s.allocator.ObserveHeadroom(pInterEst, now)
		if now-s.lastCtl >= s.cfg.ControlPeriodS-1e-9 {
			s.lastCtl = now
			pDeadline, _ := s.deadlinePowerFloor(env, now)
			s.allocator.MaybeUpdatePBatch(now, pDeadline, s.pBatchMin, s.pBatchMax)
		}
	}
}

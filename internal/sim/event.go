package sim

import (
	"math"

	"sprintcon/internal/engine"
)

// This file is the discrete-event execution core (DESIGN.md §15) behind
// RunWith. It produces results bit-identical to the Runner.Step loop while
// skipping the plant and controller work of provably quiescent spans:
//
//  1. After every normal tick it appends the complete mutable controller +
//     plant state (minus a small replayed-exactly remainder) and the
//     applied trace demand to an engine.State and compares it word for
//     word with the previous tick's. Once the state has been bit-identical
//     for more than one full controller adaptation cadence, the run is at
//     an exact floating-point fixed point with constant inputs: every
//     skipped Tick would rewrite the same state and return the same
//     outputs.
//  2. It then plans a span: the distance to the nearest barrier — run
//     end, a trace edge, a batch-job phase boundary, a policy budget edge
//     (overload/recovery wave, fail-safe expiry), a fault onset or clear,
//     a checkpoint capture becoming due. The span ends at the minimum of
//     the barrier steps. UPS and breaker thresholds need no barriers of
//     their own: a quiescent span requires zero UPS discharge and zero
//     breaker thermal accumulation, so neither state can cross a threshold
//     inside one.
//  3. fastForward closes the span analytically: each skipped tick goes
//     through recordTick with the span-constant plant outputs (preserving
//     bit-exact float addition order), batch jobs replay through the
//     rack's job-major kernel, and the policy replays the state it leaves
//     out of the comparison (headroom samples, control-period clock,
//     P_batch adaptation).
//
// Anything the proof does not cover falls back to normal ticking: noisy
// monitors, utilization jitter, ambient swing, live telemetry, and
// non-quiescent controllers (a drifting PI integral, probing locked-core
// defenses) simply never open spans and run tick by tick.

// QuiescentPolicy is the optional policy contract for event-driven
// execution. A policy implementing it certifies fixed points and replays
// its excluded state; policies without it run tick by tick under RunWith.
type QuiescentPolicy interface {
	Policy
	// QuiescentState appends all mutable controller state (except what
	// AdvanceQuiescent replays) to st, returning false when the policy is
	// structurally ineligible for span fast-forwarding.
	QuiescentState(env *Env, st *engine.State) bool
	// QuiescenceCadenceTicks is the number of consecutive bit-identical
	// states required to certify a fixed point; it must strictly exceed
	// the controller's slowest internal period in ticks.
	QuiescenceCadenceTicks(dt float64) int
	// QuiescentHorizonTicks conservatively bounds the ticks until the
	// policy's scheduled budget can next change, capped at maxTicks.
	QuiescentHorizonTicks(now, dt float64, maxTicks int) int
	// AdvanceQuiescent replays the state QuiescentState leaves out across
	// n skipped ticks at times (step0+k)·dt, bit-identically to n Tick
	// calls at a certified fixed point.
	AdvanceQuiescent(env *Env, step0 int, dt float64, n int)
}

// minSpanTicks is the smallest span worth closing analytically; shorter
// plans just run normal ticks (span setup costs a few barrier queries).
const minSpanTicks = 8

// eventCore is the event core's working state on a Runner.
type eventCore struct {
	qp      QuiescentPolicy
	cadence int

	// Fixed-point certification: cur is the state after the latest tick,
	// prev the one before; the two swap after every probe, so neither
	// allocates once grown. stable is the streak of consecutive ticks whose
	// states were bit-identical (0: no state yet). The state includes the
	// tick's inputs (applied demand, measured power), and the controller
	// lags its inputs by up to one control period (e.g. the batch-feedback
	// path), so a streak longer than the cadence also certifies that the
	// inputs have been constant for a full cadence.
	cur, prev engine.State
	stable    int
}

// eventEligible reports whether the run's static configuration permits
// quiescent spans at all. Stochastic per-tick state (monitor noise,
// utilization jitter), a time-varying ambient, or any live per-tick
// observability sink forces pure tick-by-tick execution.
func (r *Runner) eventEligible() bool {
	return r.scn.AmbientSwingC == 0 &&
		r.scn.Rack.MonitorNoiseStd == 0 &&
		r.scn.Rack.UtilJitterStd == 0 &&
		r.opts.Metrics == nil &&
		r.opts.Decisions == nil &&
		r.opts.Obs == nil &&
		r.opts.Status == nil
}

// startEventCore builds the event core's state for RunWith. It leaves r.ev
// nil — every tick then runs through Runner.Step — when the policy has no
// fixed-point contract or the run is statically ineligible.
func (r *Runner) startEventCore() {
	qp, ok := r.p.(QuiescentPolicy)
	if !ok || !r.eventEligible() {
		return
	}
	r.ev = &eventCore{qp: qp, cadence: qp.QuiescenceCadenceTicks(r.dt)}
}

// spanReady reports whether the next tick may open a quiescent span: the
// state streak exceeds the cadence, and the plant is in the quiescent
// regime right now.
func (r *Runner) spanReady() bool {
	return r.ev.stable > r.ev.cadence && !r.outage
}

// probeQuiescence runs after each executed tick (or fast-forwarded span):
// it extends or resets the fixed-point streak. The policy is asked before
// the plant's true power is computed: it refuses cheaply (at the first
// incomplete batch job, say) on most ticks that are not quiescent.
func (r *Runner) probeQuiescence() {
	ev := r.ev
	if r.step == 0 {
		return
	}
	ev.cur.Reset()
	if !r.plantQuiescent() || !ev.qp.QuiescentState(r.env, &ev.cur) ||
		r.env.Rack.TruePower() != r.snap.MeasuredTotalW {
		ev.stable = 0
		return
	}
	r.plantState(&ev.cur)
	ev.cur.F64(r.env.Trace.At(float64(r.step-1) * r.dt))
	if ev.stable > 0 && ev.cur.Equal(&ev.prev) {
		ev.stable++
	} else {
		ev.stable = 1
	}
	ev.cur, ev.prev = ev.prev, ev.cur
}

// plantQuiescent reports whether the plant side of the state machine is in
// the regime where every skipped per-tick plant call is provably the
// identity: no outage, a closed and thermally drained breaker conducting at
// or below its rating, zero UPS discharge, no active fault, and no dead or
// capture-pending checkpoint runtime. probeQuiescence adds the last
// condition, the costly one: a rack whose true power equals the last
// delivered measurement (so a job-phase or demand edge at a span boundary
// cannot leak stale inputs into an immediately following span).
func (r *Runner) plantQuiescent() bool {
	env := r.env
	if r.outage || r.snap.Outage || env.Breaker.Tripped() {
		return false
	}
	if env.Breaker.ThermalFraction() != 0 || r.lastCBW > env.Breaker.RatedPower() {
		return false
	}
	if r.snap.UPSPowerW != 0 {
		return false
	}
	if r.inj != nil && r.inj.AnyFaultActive() {
		return false
	}
	if r.ckr != nil {
		if r.ckr.ctlDead {
			return false
		}
		// A store with no save yet (or no cadence) would fire a capture
		// on an unpredictable tick; only the periodic steady state has a
		// computable capture-due barrier.
		if r.ckr.store != nil && (!r.ckr.haveSave || r.ckr.everyS <= 0) {
			return false
		}
	}
	return true
}

// plantState appends the engine-side mutable state to st: the pending
// snapshot (minus Now, which advances every tick by construction), the last
// conducted power, and the rack's frequency summary (covering every DVFS
// actuation the skipped ticks would re-apply).
func (r *Runner) plantState(st *engine.State) {
	s := &r.snap
	st.F64(s.MeasuredTotalW)
	st.F64(s.CBPowerW)
	st.F64(s.UPSPowerW)
	st.F64(s.CBThermalFraction)
	st.Bool(s.CBNearTrip)
	st.Bool(s.CBTripped)
	st.F64(s.UPSSoC)
	st.Bool(s.UPSDepleted)
	st.Bool(s.Outage)
	st.F64(r.lastCBW)
	st.F64(r.env.Rack.MeanInteractiveFreqNorm())
	st.F64(r.env.Rack.MeanBatchFreqNorm())
}

// planSpan returns the length in ticks (possibly 0) of a span that starts
// at the current step: the distance to the earliest barrier. The span must
// end strictly before it so the barrier tick itself executes as a normal
// tick.
func (r *Runner) planSpan() int {
	ev := r.ev
	step0 := r.step
	now0 := float64(step0) * r.dt
	remaining := r.steps - step0

	// Each barrier is a tick count from step0; the run end is the first.
	n := remaining
	barrier := func(k int) {
		if k < n {
			n = k
		}
	}
	barrier(r.env.Rack.BatchStableTicks(r.dt, remaining))
	barrier(ev.qp.QuiescentHorizonTicks(now0, r.dt, remaining))
	if r.inj != nil {
		barrier(r.inj.StableTicks(now0, r.dt, remaining))
	}
	if r.ckr != nil && r.ckr.store != nil {
		// Next capture fires at the first tick whose time tNext crosses
		// lastSaveS+everyS−ε; stop two ticks short so the float compare
		// margin can never land a capture inside the span.
		barrier(int((r.ckr.lastSaveS+r.ckr.everyS-1e-9-now0)/r.dt) - 2)
	}

	// Trace edge: first tick whose demand differs from the demand the
	// plant is actually running (applied by the last executed tick). The
	// scan starts at k = 0: a span opening exactly on a demand edge would
	// freeze the old interactive power under the new recorded demand — the
	// edge tick must run for real to apply it. The scan is capped at the
	// earliest cheap barrier, so its cost is bounded by the span it
	// enables (and is a slice lookup per tick, ~4 orders of magnitude
	// cheaper than the tick it elides).
	d0 := r.env.Trace.At(float64(step0-1) * r.dt)
	for k := 0; k < n; k++ {
		if r.env.Trace.At(float64(step0+k)*r.dt) != d0 {
			n = k
			break
		}
	}

	r.res.Engine.Events++
	return max(n, 0)
}

// fastForward closes a span of n ticks starting at the current step
// analytically, bit-identically to n Runner.Step calls at the certified
// fixed point. See the file comment for the proof obligations; every
// skipped call is either state-invariant in the quiescent regime (breaker
// step at zero thermal load, zero-delivery UPS discharge, idempotent
// frequency and utilization writes, below-cadence checkpoint captures) or
// replayed exactly (batch-job progress, the policy's excluded state, the
// injector's delay ring).
func (r *Runner) fastForward(n int) {
	env, res, ev := r.env, r.res, r.ev
	dt := r.dt
	step0 := r.step
	now0 := float64(step0) * dt

	// Span constants: the plant is frozen, so one evaluation each.
	pTotal := env.Rack.TruePower()
	cbW := pTotal // breaker conducts everything: zero UPS share, no trip
	upsW := 0.0
	fi := env.Rack.MeanInteractiveFreqNorm()
	fb := env.Rack.MeanBatchFreqNorm()

	// Policy replay first (Tick precedes AdvanceBatch within a real tick;
	// the two are independent here because completed jobs' weights are
	// constants, but the order documents the correspondence).
	ev.qp.AdvanceQuiescent(env, step0, dt, n)
	env.Rack.AdvanceBatchTicks(dt, now0, n)
	if r.inj != nil {
		r.inj.AdvanceConstant(pTotal, n)
	}

	// Each skipped tick goes through recordTick with the span-constant
	// plant outputs: the operands are the tick loop's, and one call per
	// tick preserves its exact float summation order.
	for k := 0; k < n; k++ {
		recordTick(res, r.reporter, float64(step0+k)*dt, pTotal, cbW, upsW, fi, fb, env, (step0+k)%r.stride == 0)
	}

	// Budget-tracking quality accumulates per tick with span-constant
	// terms (the policy's targets are certified constants).
	if r.reporter != nil {
		pcb, _ := r.reporter.Targets(now0)
		if !math.IsInf(pcb, 1) && !math.IsNaN(pcb) {
			trackErr := math.Abs(cbW - pcb)
			r.controlledTicks += n
			if cbW > pcb*1.01 {
				r.overTicks += n
			}
			for k := 0; k < n; k++ {
				r.trackErrSum += trackErr
			}
		}
	}

	// Span-end state: the snapshot the barrier tick will consume. Its Now
	// must be built as lastTickNow+dt (the tick loop's expression), not
	// float64(step0+n)·dt — the two can differ in the last bit.
	lastNow := float64(step0+n-1) * dt
	r.lastCBW = cbW
	r.snap = nextSnapshot(lastNow+dt, dt, pTotal, cbW, upsW, env, false)
	if r.inj != nil {
		r.snap.UPSSoC, r.snap.UPSDepleted = r.inj.FilterSoC(r.snap.UPSSoC, r.snap.UPSDepleted)
	}
	r.step += n

	res.Engine.Spans++
	res.Engine.TicksSkipped += n
}

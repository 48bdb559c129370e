package sim

import (
	"math"

	"sprintcon/internal/engine"
)

// This file is the discrete-event execution core (DESIGN.md §15) behind
// RunWith. It produces results bit-identical to the Runner.Step loop while
// skipping the plant and controller work of provably quiescent spans:
//
//  1. After every normal tick it hashes the complete mutable controller +
//     plant state (minus a small replayed-exactly remainder) into an
//     engine.Digest. Once the digest has been bit-identical for more than
//     one full controller adaptation cadence AND the tick inputs (trace
//     demand, measured power) have been bit-identical at least as long,
//     the run is at an exact floating-point fixed point: every skipped
//     Tick would rewrite the same state and return the same outputs.
//  2. It then plans a span: the distance to the nearest barrier event —
//     run end, a trace edge, a batch-job phase boundary, a policy budget
//     edge (overload/recovery wave, fail-safe expiry), a fault onset or
//     clear, a checkpoint capture becoming due — merged through the
//     deterministic engine.Queue. UPS and breaker thresholds need no
//     barrier kinds of their own: a quiescent span requires zero UPS
//     discharge and zero breaker thermal accumulation, so neither state
//     can cross a threshold inside one.
//  3. fastForward closes the span analytically: per-tick accumulators are
//     advanced by per-tick loops over precomputed constants (never n·x,
//     preserving bit-exact float addition order), series rows append at
//     the configured stride, batch jobs replay through the rack's
//     job-major kernel, and the policy replays its digest-excluded state
//     (headroom samples, control-period clock, P_batch adaptation).
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
	// QuiescenceDigest appends all mutable controller state (except what
	// AdvanceQuiescent replays) to the digest, returning false when the
	// policy is structurally ineligible for span fast-forwarding.
	QuiescenceDigest(env *Env, d *engine.Digest) bool
	// QuiescenceCadenceTicks is the number of consecutive bit-identical
	// digests required to certify a fixed point; it must strictly exceed
	// the controller's slowest internal period in ticks.
	QuiescenceCadenceTicks(dt float64) int
	// QuiescentHorizonTicks conservatively bounds the ticks until the
	// policy's scheduled budget can next change, capped at maxTicks.
	QuiescentHorizonTicks(now, dt float64, maxTicks int) int
	// AdvanceQuiescent replays the digest-excluded state across n skipped
	// ticks at times (step0+k)·dt, bit-identically to n Tick calls at a
	// certified fixed point.
	AdvanceQuiescent(env *Env, step0 int, dt float64, n int)
}

// minSpanTicks is the smallest span worth closing analytically; shorter
// plans just run normal ticks (span setup costs a few barrier queries).
const minSpanTicks = 8

// eventCore is the event core's working state on a Runner.
type eventCore struct {
	qp      QuiescentPolicy
	q       engine.Queue
	dig     engine.Digest
	cadence int

	// Fixed-point certification: the streak of consecutive ticks whose
	// post-tick digest was bit-identical.
	stable  int
	lastDig uint64
	haveDig bool

	// Input-change guard: the last step whose tick inputs (trace demand,
	// measured total power) differed from the previous tick's. The
	// controller's state lags its inputs by up to one control period
	// (e.g. the batch-feedback path), so a span may only open once the
	// inputs have been constant for a full cadence too.
	lastInputChange int
	prevDemand      float64
	prevMeasured    float64
	havePrev        bool
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
	r.ev = &eventCore{
		qp:              qp,
		dig:             engine.NewDigest(),
		cadence:         qp.QuiescenceCadenceTicks(r.dt),
		lastInputChange: r.step,
	}
}

// spanReady reports whether the next tick may open a quiescent span: the
// digest streak and the input-constancy window both exceed the cadence,
// and the plant is in the quiescent regime right now.
func (r *Runner) spanReady() bool {
	ev := r.ev
	return ev.stable > ev.cadence &&
		r.step-ev.lastInputChange > ev.cadence &&
		!r.outage
}

// probeQuiescence runs after each executed tick (or fast-forwarded span):
// it tracks input changes and extends or resets the fixed-point streak.
func (r *Runner) probeQuiescence() {
	ev := r.ev
	if r.step == 0 {
		return
	}
	now := float64(r.step-1) * r.dt
	demand := r.env.Trace.At(now)
	m := r.snap.MeasuredTotalW
	if !ev.havePrev || demand != ev.prevDemand || m != ev.prevMeasured {
		ev.lastInputChange = r.step - 1
		ev.havePrev = true
	}
	ev.prevDemand, ev.prevMeasured = demand, m

	if !r.plantQuiescent() {
		ev.stable, ev.haveDig = 0, false
		return
	}
	ev.dig.Reset()
	if !ev.qp.QuiescenceDigest(r.env, &ev.dig) {
		ev.stable, ev.haveDig = 0, false
		return
	}
	r.plantDigest(&ev.dig)
	sum := ev.dig.Sum()
	if ev.haveDig && sum == ev.lastDig {
		ev.stable++
		return
	}
	ev.lastDig, ev.haveDig, ev.stable = sum, true, 1
}

// plantQuiescent reports whether the plant side of the state machine is in
// the regime where every skipped per-tick plant call is provably the
// identity: no outage, a closed and thermally drained breaker conducting at
// or below its rating, zero UPS discharge, no active fault, no dead or
// capture-pending checkpoint runtime, and a rack whose true power equals
// the last delivered measurement (so a job-phase or demand edge at a span
// boundary cannot leak stale inputs into an immediately following span).
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
	return env.Rack.TruePower() == r.snap.MeasuredTotalW
}

// plantDigest appends the engine-side mutable state to the digest: the
// pending snapshot (minus Now, which advances every tick by construction),
// the last conducted power, and the rack's frequency summary (covering
// every DVFS actuation the skipped ticks would re-apply).
func (r *Runner) plantDigest(d *engine.Digest) {
	s := &r.snap
	d.F64(s.MeasuredTotalW)
	d.F64(s.CBPowerW)
	d.F64(s.UPSPowerW)
	d.F64(s.CBThermalFraction)
	d.Bool(s.CBNearTrip)
	d.Bool(s.CBTripped)
	d.F64(s.UPSSoC)
	d.Bool(s.UPSDepleted)
	d.Bool(s.Outage)
	d.F64(r.lastCBW)
	d.F64(r.env.Rack.MeanInteractiveFreqNorm())
	d.F64(r.env.Rack.MeanBatchFreqNorm())
}

// planSpan merges every barrier bounding a span that starts at the current
// step and returns the span length in ticks (possibly 0). The earliest
// pending event is the binding barrier; the span must end strictly before
// it so the barrier tick itself executes as a normal tick.
func (r *Runner) planSpan() int {
	ev := r.ev
	step0 := r.step
	now0 := float64(step0) * r.dt
	remaining := r.steps - step0
	q := &ev.q
	q.Reset()

	q.Push(int64(r.steps), engine.KindRunEnd)
	q.Push(int64(step0+r.env.Rack.BatchStableTicks(r.dt, remaining)), engine.KindJobPhase)
	q.Push(int64(step0+ev.qp.QuiescentHorizonTicks(now0, r.dt, remaining)), engine.KindPolicyEdge)
	if r.inj != nil {
		q.Push(int64(step0+r.inj.StableTicks(now0, r.dt, remaining)), engine.KindFaultTransition)
	}
	if r.ckr != nil && r.ckr.store != nil {
		// Next capture fires at the first tick whose time tNext crosses
		// lastSaveS+everyS−ε; stop two ticks short so the float compare
		// margin can never land a capture inside the span.
		cn := int((r.ckr.lastSaveS+r.ckr.everyS-1e-9-now0)/r.dt) - 2
		if cn < 0 {
			cn = 0
		}
		q.Push(int64(step0+cn), engine.KindCaptureDue)
	}

	// Trace edge: first tick whose demand differs from the demand the
	// plant is actually running (applied by the last executed tick). The
	// scan starts at k = 0: a span opening exactly on a demand edge would
	// freeze the old interactive power under the new recorded demand — the
	// edge tick must run for real to apply it. The scan is capped at the
	// earliest cheap barrier, so its cost is bounded by the span it
	// enables (and is a slice lookup per tick, ~4 orders of magnitude
	// cheaper than the tick it elides).
	scanCap := remaining
	if e, ok := q.Peek(); ok && int(e.Step)-step0 < scanCap {
		scanCap = int(e.Step) - step0
	}
	d0 := r.env.Trace.At(float64(step0-1) * r.dt)
	edge := scanCap
	for k := 0; k < scanCap; k++ {
		if r.env.Trace.At(float64(step0+k)*r.dt) != d0 {
			edge = k
			break
		}
	}
	q.Push(int64(step0+edge), engine.KindTraceEdge)

	e, _ := q.Pop()
	r.res.Engine.Events++
	n := int(e.Step) - step0
	if n < 0 {
		n = 0
	}
	if n > remaining {
		n = remaining
	}
	return n
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
	stride := r.stride

	// Span constants: the plant is frozen, so one evaluation each.
	pTotal := env.Rack.TruePower()
	cbW := pTotal // breaker conducts everything: zero UPS share, no trip
	upsW := 0.0
	fi := env.Rack.MeanInteractiveFreqNorm()
	fb := env.Rack.MeanBatchFreqNorm()
	soc := env.UPS.SoC()

	// Policy replay first (Tick precedes AdvanceBatch within a real tick;
	// the two are independent here because completed jobs' weights are
	// constants, but the order documents the correspondence).
	ev.qp.AdvanceQuiescent(env, step0, dt, n)
	env.Rack.AdvanceBatchTicks(dt, now0, n)
	if r.inj != nil {
		r.inj.AdvanceConstant(pTotal, n)
	}

	// Accumulators advance by per-tick loops over precomputed per-tick
	// increments — the increments are bit-identical to the per-tick
	// expressions (same operands), and looped addition preserves the tick
	// loop's exact float summation order.
	eTot := pTotal * res.Series.DtS / 3600
	eCB := cbW * res.Series.DtS / 3600
	ov := cbW - env.Breaker.RatedPower()
	eOver := 0.0
	if ov > 0 {
		eOver = ov * res.Series.DtS / 3600
	}
	s := &res.Series
	for k := 0; k < n; k++ {
		res.nTicks++
		res.sumFreqInter += fi
		res.sumFreqBatch += fb
		res.EnergyTotalWh += eTot
		res.EnergyCBWh += eCB
		if ov > 0 {
			res.EnergyCBOverWh += eOver
		}
		if (step0+k)%stride != 0 {
			continue
		}
		nowK := float64(step0+k) * dt
		s.Time = append(s.Time, nowK)
		s.TotalW = append(s.TotalW, pTotal)
		s.Demand = append(s.Demand, env.Trace.At(nowK))
		s.CBW = append(s.CBW, cbW)
		s.UPSW = append(s.UPSW, upsW)
		s.SoC = append(s.SoC, soc)
		pcb, pbatch := math.NaN(), math.NaN()
		if r.reporter != nil {
			pcb, pbatch = r.reporter.Targets(nowK)
		}
		s.PCbW = append(s.PCbW, pcb)
		s.PBatchW = append(s.PBatchW, pbatch)
		s.FreqInter = append(s.FreqInter, fi)
		s.FreqBatch = append(s.FreqBatch, fb)
	}

	// Budget-tracking quality accumulates per tick with span-constant
	// terms (the policy's targets are digest-certified constants).
	if r.reporter != nil {
		pcb, _ := r.reporter.Targets(now0)
		if !math.IsInf(pcb, 1) && !math.IsNaN(pcb) {
			trackErr := math.Abs(cbW - pcb)
			over := cbW > pcb*1.01
			for k := 0; k < n; k++ {
				r.controlledTicks++
				r.trackErrSum += trackErr
				if over {
					r.overTicks++
				}
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

// Package alloc implements SprintCon's power load allocator (paper
// Section IV), the component that quantitatively divides sprinting power
// between the two sources:
//
//   - P_cb, the circuit-breaker power target, scheduled from the workload
//     burst duration: unconstrained for sub-minute bursts, a single
//     reduced-degree overload sized to the burst for 5–10 minute bursts,
//     and the periodic overload/recovery square wave for long sprints
//     (1.25× rated for 150 s, rated for 300 s, repeating);
//   - P_batch, the batch power budget, adapted every 30 s from (1) the
//     batch jobs' deadline progress and (2) the interactive workload's
//     recent power demand on the CB headroom.
//
// P_batch is maintained as P_cb(t) − interactive reserve − idle share, plus
// a deadline shift when the CB cannot afford the deadline-required batch
// power on its own. The interactive reserve is adapted every period either
// from a high quantile of the observed interactive power (default) or with
// the paper's literal saturation-threshold stepping rule (ablation mode).
// Because P_cb(t) follows the overload schedule, P_batch inherits the
// overload bonus: batch cores speed up while the breaker is overloaded and
// throttle down while it recovers — the phase-locked batch frequency
// pattern of the paper's Fig. 7(a).
package alloc

import (
	"errors"
	"math"
	"slices"

	"sprintcon/internal/engine"
)

// AdaptMode selects how the interactive reserve is adapted.
type AdaptMode int

const (
	// AdaptQuantile sets the reserve to a high quantile of the observed
	// interactive power each period (default; converges in one period).
	AdaptQuantile AdaptMode = iota
	// AdaptThreshold applies the paper's literal rule: step the budget
	// by a fixed amount when headroom saturation crosses the thresholds.
	AdaptThreshold
)

// Config parameterizes the allocator.
type Config struct {
	// RatedPowerW is the breaker's continuous rating (paper: 3.2 kW).
	RatedPowerW float64
	// OverloadDegree is the periodic-overload degree (paper: 1.25).
	OverloadDegree float64
	// OverloadS and RecoveryS are the periodic schedule's phase lengths
	// (paper: 150 s and 300 s).
	OverloadS float64
	RecoveryS float64
	// TripBudgetS is the breaker's overload-seconds budget
	// Θ = τ(o)·(o²−1), used to size safe constant overloads for
	// medium-length bursts; it must match the breaker's calibration.
	TripBudgetS float64
	// MidBurstS: bursts up to this length get one constant overload
	// sized to last the whole burst (paper: 5–10 minutes). Longer bursts
	// use the periodic schedule.
	MidBurstS float64
	// Mode selects quantile (default) or threshold adaptation.
	Mode AdaptMode
	// PhaseOffsetS shifts the periodic overload schedule in time, which
	// is how every multi-rack layer packs overload windows: the E12
	// stagger spreads co-located racks' phases evenly, the link
	// coordinator bootstraps and re-packs K-at-a-time slot offsets over
	// the control link, and the hierarchical sweep assigns each rack the
	// offset of slot ⌊rack/K⌋ within its row. All of them flatten the
	// aggregate draw on the feeder above.
	PhaseOffsetS float64
}

// Fixed allocator tuning: the paper's evaluation settings.
const (
	// safetyMargin derates computed overload degrees (fraction).
	safetyMargin float64 = 0.03
	// shortBurstS: bursts shorter than this are left uncontrolled
	// (paper: < 1 minute, "perhaps unnecessary to control").
	shortBurstS float64 = 60
	// PBatchPeriodS is the P_batch adaptation period (paper: 30 s,
	// longer than the server power controller's settling time).
	PBatchPeriodS float64 = 30
	// reserveQuantile is the interactive-power quantile reserved out of
	// the CB budget in quantile mode.
	reserveQuantile float64 = 0.8
	// pBatchStepW is the stepping size in threshold mode.
	pBatchStepW float64 = 160
	// headroomHighFrac / headroomLowFrac are the threshold mode's
	// saturation thresholds (paper: "more than 90 % of the time").
	headroomHighFrac float64 = 0.9
	headroomLowFrac  float64 = 0.5
	// deadlineMargin inflates the deadline-required batch power
	// (fraction) so that model error does not cause misses.
	deadlineMargin float64 = 0.15
)

// DefaultConfig returns the paper's evaluation settings for a breaker with
// the given rating and trip budget.
func DefaultConfig(ratedW, tripBudgetS float64) Config {
	return Config{
		RatedPowerW:    ratedW,
		OverloadDegree: 1.25,
		OverloadS:      150,
		RecoveryS:      300,
		TripBudgetS:    tripBudgetS,
		MidBurstS:      600,
		Mode:           AdaptQuantile,
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	switch {
	case c.RatedPowerW <= 0:
		return errors.New("alloc: RatedPowerW must be positive")
	case c.OverloadDegree <= 1:
		return errors.New("alloc: OverloadDegree must exceed 1")
	case c.OverloadS <= 0 || c.RecoveryS <= 0:
		return errors.New("alloc: overload/recovery durations must be positive")
	case c.TripBudgetS <= 0:
		return errors.New("alloc: TripBudgetS must be positive")
	case c.MidBurstS <= shortBurstS:
		return errors.New("alloc: MidBurstS must exceed the short-burst cutoff")
	case c.PhaseOffsetS < 0:
		return errors.New("alloc: PhaseOffsetS must be non-negative")
	}
	return nil
}

// Allocator is the mutable allocator state for one sprint.
type Allocator struct {
	cfg        Config
	burstStart float64
	burstDur   float64
	started    bool

	idleW    float64 // design-model estimate of unassigned cores' power
	reserveW float64 // interactive power reserved out of the CB budget
	shiftW   float64 // deadline shift added on top of the CB affordance
	bMin     float64 // physical batch power floor (last reported)
	bMax     float64 // physical batch power ceiling (last reported)

	lastUpdate  float64
	samples     []float64 // interactive power observations this window
	samplesHigh int       // threshold mode: saturated samples
	qScratch    []float64 // reused sort buffer for the reserve quantile

	// conf derates the overload bonus: with measurement confidence c the
	// scheduled budget becomes rated + c·(P_cb − rated). Sprinting past
	// the breaker rating is only safe while the telemetry that closes the
	// loop is trustworthy, so degraded confidence shrinks the overload
	// proportionally and confidence 0 removes it entirely.
	conf float64
}

// maxSamples bounds the observation window (at 1 Hz this is 10 periods).
const maxSamples = 300

// New returns an allocator or an error for invalid configuration.
func New(cfg Config) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Allocator{cfg: cfg, bMax: math.Inf(1), conf: 1}, nil
}

// SetConfidence sets the measurement-confidence factor in [0, 1] that
// derates the overload portion of the CB budget (NaN is treated as 0).
func (a *Allocator) SetConfidence(c float64) {
	if math.IsNaN(c) || c < 0 {
		c = 0
	} else if c > 1 {
		c = 1
	}
	a.conf = c
}

// SetPhaseOffsetS re-phases the periodic overload schedule at runtime — the
// control link's re-pack path moves a rack to a different overload slot this
// way. Non-finite or negative offsets are clamped to 0 (the validated
// config range).
func (a *Allocator) SetPhaseOffsetS(s float64) {
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		s = 0
	}
	a.cfg.PhaseOffsetS = s
}

// BurstAnchorS returns the absolute simulation time the current burst's
// periodic schedule is anchored at (StartBurst's now), or 0 when no burst is
// active. PCb's square wave runs on mod(now − anchor + PhaseOffsetS, cycle),
// so a consumer expressing offsets in an absolute t=0 frame — the cluster
// control link's slot assignments — must add the anchor before SetPhaseOffsetS.
func (a *Allocator) BurstAnchorS() float64 {
	if !a.started {
		return 0
	}
	return a.burstStart
}

// StartBurst begins a sprint of the given expected duration at time now.
// idleW is the design-model power of unassigned cores; the initial
// interactive reserve seeds the budget until the first adaptation.
func (a *Allocator) StartBurst(now, expectedDurationS, idleW, initialReserveW float64) {
	a.burstStart = now
	a.burstDur = expectedDurationS
	a.started = true
	a.idleW = idleW
	a.reserveW = math.Max(0, initialReserveW)
	a.shiftW = 0
	// Arm the first P_batch update to fire on the very first control
	// period, so the deadline shift is active from the sprint's start.
	a.lastUpdate = now - PBatchPeriodS
	a.samples = a.samples[:0]
	a.samplesHigh = 0
}

// Started reports whether a burst is active.
func (a *Allocator) Started() bool { return a.started }

// EndBurst stops the sprint.
func (a *Allocator) EndBurst() { a.started = false }

// SafeConstantDegree returns the largest overload degree sustainable for
// durationS seconds within the breaker's trip budget, derated by the safety
// margin and capped at the configured periodic degree. Durations at or
// beyond the budget's reach return 1 (no overload possible for that long).
func (a *Allocator) SafeConstantDegree(durationS float64) float64 {
	if durationS <= 0 {
		return a.cfg.OverloadDegree
	}
	// τ(o) = Θ/(o²−1) = durationS  →  o = √(1 + Θ/durationS).
	o := math.Sqrt(1 + a.cfg.TripBudgetS/durationS)
	o *= 1 - safetyMargin
	if o > a.cfg.OverloadDegree {
		o = a.cfg.OverloadDegree
	}
	if o < 1 {
		o = 1
	}
	return o
}

// PCb returns the circuit-breaker power target at time now (paper
// Section IV-A). +Inf means "uncontrolled" (sub-minute bursts).
func (a *Allocator) PCb(now float64) float64 {
	if !a.started {
		return a.cfg.RatedPowerW
	}
	switch {
	case a.burstDur < shortBurstS:
		return math.Inf(1)
	case a.burstDur <= a.cfg.MidBurstS:
		// One constant overload lasting the whole burst, at the
		// largest degree the trip budget allows.
		return a.derate(a.cfg.RatedPowerW * a.SafeConstantDegree(a.burstDur))
	default:
		// Periodic overload: 150 s at degree, 300 s at rated.
		phase := math.Mod(now-a.burstStart+a.cfg.PhaseOffsetS, a.cfg.OverloadS+a.cfg.RecoveryS)
		if phase < 0 {
			phase += a.cfg.OverloadS + a.cfg.RecoveryS
		}
		if phase < a.cfg.OverloadS {
			return a.derate(a.cfg.RatedPowerW * a.cfg.OverloadDegree)
		}
		return a.cfg.RatedPowerW
	}
}

// derate scales the overload portion of a CB budget by the measurement
// confidence: rated + conf·(pcb − rated).
func (a *Allocator) derate(pcbW float64) float64 {
	if a.conf >= 1 || pcbW <= a.cfg.RatedPowerW {
		return pcbW
	}
	return a.cfg.RatedPowerW + a.conf*(pcbW-a.cfg.RatedPowerW)
}

// OverloadBonusW returns the extra CB power available while overloading:
// rated × (degree − 1).
func (a *Allocator) OverloadBonusW() float64 {
	return a.cfg.RatedPowerW * (a.cfg.OverloadDegree - 1)
}

// OverloadFrac returns the fraction of the periodic schedule spent
// overloading.
func (a *Allocator) OverloadFrac() float64 {
	return a.cfg.OverloadS / (a.cfg.OverloadS + a.cfg.RecoveryS)
}

// InteractiveReserveW returns the current interactive power reserve.
func (a *Allocator) InteractiveReserveW() float64 { return a.reserveW }

// DeadlineShiftW returns the current deadline shift.
func (a *Allocator) DeadlineShiftW() float64 { return a.shiftW }

// PBatchAt returns the batch power budget at time now: the CB target minus
// the interactive reserve and idle share, plus the deadline shift. Because
// P_cb(t) carries the overload schedule, the batch budget rises by the full
// overload bonus while the breaker is overloaded. +Inf P_cb (uncontrolled
// short bursts) yields +Inf (the caller clamps to the batch maximum).
func (a *Allocator) PBatchAt(now float64) float64 {
	pcb := a.PCb(now)
	if math.IsInf(pcb, 1) {
		return a.bMax
	}
	return clampF(pcb-a.reserveW-a.idleW+a.shiftW, a.bMin, a.bMax)
}

// ObserveHeadroom records one interactive-power sample for the adaptation
// window (paper: "the fluctuation of interactive workload power
// consumption" is the second P_batch factor).
func (a *Allocator) ObserveHeadroom(pInterW, now float64) {
	if !a.started {
		return
	}
	if math.IsNaN(pInterW) || math.IsInf(pInterW, 0) {
		// A corrupted sample would poison the reserve quantile for a
		// whole adaptation window; drop it.
		return
	}
	pcb := a.PCb(now)
	if math.IsInf(pcb, 1) {
		return
	}
	if len(a.samples) < maxSamples {
		a.samples = append(a.samples, pInterW)
	}
	if pInterW > pcb-a.PBatchAt(now) {
		a.samplesHigh++
	}
}

// MaybeUpdatePBatch applies the two-factor P_batch adaptation if a full
// period has elapsed. pDeadlineW is the batch power required to meet all
// deadlines (computed by the caller from the progress model);
// pBatchMinW/pBatchMaxW bound the power batch cores can physically consume
// (all at floor / all at peak frequency). It returns whether an update
// occurred.
func (a *Allocator) MaybeUpdatePBatch(now, pDeadlineW, pBatchMinW, pBatchMaxW float64) bool {
	if !a.started || now-a.lastUpdate < PBatchPeriodS {
		return false
	}
	a.lastUpdate = now
	a.bMin, a.bMax = pBatchMinW, pBatchMaxW

	// Factor 2: interactive demand on the CB headroom.
	if len(a.samples) > 0 {
		switch a.cfg.Mode {
		case AdaptThreshold:
			frac := float64(a.samplesHigh) / float64(len(a.samples))
			switch {
			case frac > headroomHighFrac:
				// Interactive saturates the headroom: grow the
				// reserve (shrink P_batch) so interactive work
				// draws CB power instead of UPS power.
				a.reserveW += pBatchStepW
			case frac < headroomLowFrac:
				a.reserveW = math.Max(0, a.reserveW-pBatchStepW)
			}
		default:
			a.qScratch = append(a.qScratch[:0], a.samples...)
			a.reserveW = quantile(a.qScratch, reserveQuantile)
		}
	}
	a.samples = a.samples[:0]
	a.samplesHigh = 0

	// Factor 1: deadline requirement. Choose the (signed) shift whose
	// *delivered* cycle-average budget (after clamping to the batch
	// cores' physical range) equals the deadline-required power: a
	// positive shift makes the UPS cover a CB shortfall; a negative one
	// throttles batch work that would otherwise finish needlessly early
	// (paper Section VII-D: "only SprintCon can efficiently make use of
	// the time before deadlines to save the power consumption of batch
	// workloads").
	need := pDeadlineW * (1 + deadlineMargin)
	phi := a.OverloadFrac()
	base := a.cfg.RatedPowerW - a.reserveW - a.idleW
	bonus := a.OverloadBonusW()
	delivered := func(shift float64) float64 {
		ov := clampF(base+bonus+shift, pBatchMinW, pBatchMaxW)
		rec := clampF(base+shift, pBatchMinW, pBatchMaxW)
		return phi*ov + (1-phi)*rec
	}
	lo := pBatchMinW - base - bonus // delivers the floor everywhere
	hi := pBatchMaxW - base         // delivers the ceiling everywhere
	switch {
	case need <= delivered(lo):
		a.shiftW = lo
	case need >= delivered(hi):
		a.shiftW = hi
	default:
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			if delivered(mid) < need {
				lo = mid
			} else {
				hi = mid
			}
		}
		a.shiftW = hi
	}
	return true
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NextBudgetEdge returns the absolute time of the next point at which the
// CB budget schedule PCb(·) can change value, or +Inf when the schedule is
// constant in time (no burst, uncontrolled short burst, or a single constant
// mid-burst overload). The event engine uses this as its policy-edge
// barrier: a quiescent span must not be fast-forwarded across an
// overload↔recovery transition.
func (a *Allocator) NextBudgetEdge(now float64) float64 {
	if !a.started || a.burstDur <= a.cfg.MidBurstS {
		return math.Inf(1)
	}
	cycle := a.cfg.OverloadS + a.cfg.RecoveryS
	phase := math.Mod(now-a.burstStart+a.cfg.PhaseOffsetS, cycle)
	if phase < 0 {
		phase += cycle
	}
	if phase < a.cfg.OverloadS {
		return now + (a.cfg.OverloadS - phase)
	}
	return now + (cycle - phase)
}

// QuiescentState appends the allocator state that must be bit-stable for
// a quiescent span. The adaptation-window bookkeeping
// (lastUpdate, samples, samplesHigh, qScratch) is deliberately excluded:
// the event engine replays ObserveHeadroom and MaybeUpdatePBatch exactly
// across a span, so that state evolves identically whether or not ticks are
// fast-forwarded, while the appended fields are proven rewritten-identically
// at a certified fixed point.
func (a *Allocator) QuiescentState(st *engine.State) {
	st.F64(a.burstStart)
	st.F64(a.burstDur)
	st.Bool(a.started)
	st.F64(a.idleW)
	st.F64(a.reserveW)
	st.F64(a.shiftW)
	st.F64(a.bMin)
	st.F64(a.bMax)
	st.F64(a.conf)
	st.F64(a.cfg.PhaseOffsetS)
}

// SetReserve overrides the interactive reserve (supervisor degraded modes).
func (a *Allocator) SetReserve(w float64) { a.reserveW = math.Max(0, w) }

// quantile returns the q-quantile of xs, sorting xs in place (callers pass
// a scratch copy so the observation window keeps its arrival order).
func quantile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	if len(xs) == 0 {
		return 0
	}
	idx := int(q*float64(len(xs))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

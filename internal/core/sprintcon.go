// Package core implements SprintCon itself (paper Sections IV–V): the
// power load allocator, the MPC server power controller and the UPS power
// controller wired together behind the sim.Policy interface, plus the
// safety supervisor that implements the paper's degradation ladder:
//
//   - circuit breaker near tripping → stop overloading; the UPS takes over
//     the load above the rating;
//   - UPS energy exhausted → P_cb becomes the power target for ALL
//     workloads, with priority bidding between classes;
//   - both → end sprinting.
//
// The controller is one rack's brain, but it composes upward: an upstream
// coordinator (the lease-based control link of internal/link, funded by
// internal/hier's budget waterfall) can tighten its budget each tick via
// SetExternalBudget. The constraint is tighten-only, so the stack above
// can only ever make the rack safer than it would be standalone.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sprintcon/internal/alloc"
	"sprintcon/internal/control"
	"sprintcon/internal/sim"
)

// Mode is the supervisor state (paper Section IV-C).
type Mode int

const (
	// ModeNormal: scheduled CB overload + UPS covering the excess.
	ModeNormal Mode = iota
	// ModeNoOverload: CB near tripping; overload stopped, UPS carries
	// everything above the rating.
	ModeNoOverload
	// ModeCBOnly: UPS depleted; P_cb is the budget for all workloads and
	// classes bid for power.
	ModeCBOnly
	// ModeEnded: both events occurred; sprinting has ended.
	ModeEnded
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeNoOverload:
		return "no-overload"
	case ModeCBOnly:
		return "cb-only"
	case ModeEnded:
		return "ended"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ServerController selects the server power controller implementation.
type ServerController int

const (
	// ControllerMPC is the paper's design (Section V-B), with the
	// constant-move prediction simplification.
	ControllerMPC ServerController = iota
	// ControllerPI is the single-loop ablation baseline (DESIGN.md A1).
	ControllerPI
	// ControllerMPCFull optimizes a true sequence of distinct moves over
	// the control horizon (DESIGN.md A1 extension).
	ControllerMPCFull
)

// Config tunes SprintCon. The zero value selects paper defaults via New.
type Config struct {
	// Controller selects MPC (paper) or PI (ablation).
	Controller ServerController
	// ControlPeriodS is the server power controller period.
	ControlPeriodS float64
	// RefTimeConstS is the MPC reference-trajectory time constant τ_r.
	RefTimeConstS float64
	// UPSCtl configures the UPS power controller.
	UPSCtl control.UPSControllerConfig
	// AllocOverride, when non-nil, replaces the allocator configuration
	// derived from the scenario (used by ablations A2).
	AllocOverride *alloc.Config
	// InitialKScale multiplies the design model's frequency slope K,
	// simulating a miscalibrated power model (1 = calibrated). Used by
	// the online-estimation ablation.
	InitialKScale float64
	// OnlineEstimation enables recursive-least-squares adaptation of the
	// slope K from observed (ΔF, Δp) pairs each control period — the
	// online model estimation of [27].
	OnlineEstimation bool
	// NoSprint disables sprinting entirely: no CB overload, no UPS
	// discharge — classic power capping at the breaker rating ([8]).
	// This quantifies what sprinting buys (experiment E17).
	NoSprint bool
	// Harden configures the fault defenses (measurement guard, telemetry
	// and UPS watchdogs, actuator-effectiveness monitoring). Defenses are
	// ON by default; set Harden.Disabled for the paper-faithful
	// fault-oblivious controller.
	Harden HardeningConfig
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		Controller:     ControllerMPC,
		ControlPeriodS: 4,
		RefTimeConstS:  2,
		UPSCtl:         control.DefaultUPSControllerConfig(),
		InitialKScale:  1,
	}
}

// Fixed SprintCon tuning.
const (
	// refUtil is the utilization at which the linear design model is
	// fitted (batch cores run nearly saturated).
	refUtil float64 = 0.9
	// minInteractiveFreqNorm floors interactive throttling during power
	// bidding (never slow interactive cores below this fraction of peak).
	minInteractiveFreqNorm float64 = 0.2
	// cbOnlyMarginFrac derates the CB budget in the degraded modes where
	// the UPS can no longer absorb error: without it the total power
	// hovers *at* the rating and the breaker's thermal state never
	// decays.
	cbOnlyMarginFrac float64 = 0.04
)

// SprintCon is the policy. Create with New; it binds to an environment in
// Start and is not safe for concurrent use.
type SprintCon struct {
	cfg Config

	allocator *alloc.Allocator
	mpc       *control.MPC
	pi        *control.PI
	upsctl    *control.UPSController

	scn      sim.Scenario
	cmdFreqs []float64 // continuous commanded batch frequencies (owned)
	// Per-control-period scratch, preallocated in Start so the steady
	// state tick performs no heap allocation (DESIGN.md §10).
	rwBuf      []float64
	appliedBuf []float64
	kPerCore   float64
	cSharePer  float64
	idleEstW   float64
	pBatchMax  float64
	pBatchMin  float64
	fmin       float64
	fmax       float64

	mode         Mode
	lastCtl      float64
	curPCb       float64
	curPBatch    float64
	everNearTrip bool
	everDepleted bool
	// failSafeUntil caps the CB budget at the rating until the given
	// simulation time. It is set when the controller restarts without a
	// trustworthy checkpoint: the breaker's thermal history is unknown,
	// so no overload may be scheduled until one full recovery time has
	// re-established it (DESIGN.md §11).
	failSafeUntil float64
	// inv is the runtime safety-invariant supervisor state (invariants.go).
	inv invariantState

	// ext is the cluster coordinator's externally imposed budget (zero
	// value = standalone rack, no external constraint). See ExternalBudget.
	ext ExternalBudget

	// hd is the fault-defense state (nil when hardening is disabled).
	hd *hardenState

	// tm holds the registered telemetry instruments (zero value when the
	// run is un-instrumented) and pending the decision-trace inputs of
	// the current control period, emitted at the end of Tick once the
	// UPS request is known.
	tm      coreMetrics
	pending *decisionInputs

	// ob is the observability-plane hook (obs.go); zero value when the
	// run is unobserved.
	ob obsHook

	// Online model estimation (optional).
	rls         *control.RLS
	kModel      float64 // slope the controllers currently use
	prevPfb     float64
	lastMoveSum float64
	havePrev    bool
}

// New returns a SprintCon policy with the given configuration; zero-value
// fields are filled from DefaultConfig.
func New(cfg Config) *SprintCon {
	def := DefaultConfig()
	if cfg.ControlPeriodS == 0 {
		cfg.ControlPeriodS = def.ControlPeriodS
	}
	if cfg.RefTimeConstS == 0 {
		cfg.RefTimeConstS = def.RefTimeConstS
	}
	if cfg.UPSCtl == (control.UPSControllerConfig{}) {
		cfg.UPSCtl = def.UPSCtl
	}
	if cfg.InitialKScale == 0 {
		cfg.InitialKScale = def.InitialKScale
	}
	return &SprintCon{cfg: cfg}
}

// Name implements sim.Policy.
func (s *SprintCon) Name() string {
	if s.cfg.NoSprint {
		return "NoSprint"
	}
	name := "SprintCon"
	switch s.cfg.Controller {
	case ControllerPI:
		name = "SprintCon-PI"
	case ControllerMPCFull:
		name = "SprintCon-MPCFull"
	}
	if s.cfg.Harden.Disabled {
		name += "-unhardened"
	}
	return name
}

// Mode returns the current supervisor mode.
func (s *SprintCon) Mode() Mode { return s.mode }

// ExternalBudget is a budget imposed on the rack from outside — the row
// control link's per-tick lease budget, itself funded by the hierarchy's
// building → row waterfall when one is stacked above it. It only ever
// tightens what the rack's own schedule and supervisor would allow: an
// inactive external budget leaves the controller bit-identical to a
// standalone run.
type ExternalBudget struct {
	// Active gates the whole struct; false means no external constraint.
	Active bool
	// PCbCapW, when positive, caps the CB power target.
	PCbCapW float64
	// AllowOverload false caps the CB target at the breaker rating.
	AllowOverload bool
	// AllowUPS false suppresses UPS discharge requests.
	AllowUPS bool
}

// SetExternalBudget installs the external budget applied from the next tick
// on.
func (s *SprintCon) SetExternalBudget(b ExternalBudget) { s.ext = b }

// SetPhaseOffset re-phases the allocator's overload schedule (the control
// link's slot re-assignment path). Safe to call every tick. The offset is in
// the allocator's burst-anchored frame; see ScheduleAnchorS for translating
// an absolute (t=0 anchored) offset.
func (s *SprintCon) SetPhaseOffset(offsetS float64) {
	if s.allocator != nil {
		s.allocator.SetPhaseOffsetS(offsetS)
	}
}

// ScheduleAnchorS returns the absolute simulation time the allocator's
// periodic overload schedule is anchored at: 0 after a normal t=0 Start, the
// restart time after a fail-safe restore re-announces the burst. Consumers
// that assign overload slots in an absolute frame (the cluster control link)
// must fold this anchor into the offset they impose, or a restarted rack
// would overload in a window shifted from its assigned slot.
func (s *SprintCon) ScheduleAnchorS() float64 {
	if s.allocator == nil {
		return 0
	}
	return s.allocator.BurstAnchorS()
}

// Start implements sim.Policy.
func (s *SprintCon) Start(env *sim.Env, scn sim.Scenario) error {
	if err := s.initCommon(env, scn); err != nil {
		return err
	}

	// Announce the burst: the initial interactive reserve is the
	// Eq. (5) estimate at the trace's first sample.
	s.allocator.StartBurst(0, scn.BurstDurationS, s.idleEstW, s.interactiveEstimate(env, 0))
	s.curPCb = s.allocator.PCb(0)
	s.curPBatch = clamp(s.allocator.PBatchAt(0), s.pBatchMin, s.pBatchMax)

	// Sprinting begins: interactive cores to peak frequency.
	env.Rack.SetInteractiveFreq(s.fmax)
	return nil
}

// initCommon builds every controller component for the given environment —
// model coefficients, allocator, MPC/PI, UPS controller, hardening state —
// without announcing a burst or actuating anything. It is shared by Start
// (which then announces t=0 and actuates) and RestoreCheckpoint (which then
// overlays the snapshot and must not actuate: the plant kept running while
// the controller was down).
func (s *SprintCon) initCommon(env *sim.Env, scn sim.Scenario) error {
	if env == nil {
		return errors.New("core: nil environment")
	}
	s.scn = scn
	s.mode = ModeNormal
	s.lastCtl = math.Inf(-1)
	s.everNearTrip, s.everDepleted = false, false
	s.failSafeUntil = math.Inf(-1)
	s.inv = invariantState{}
	s.tm = newCoreMetrics(env.Metrics)
	s.pending = nil
	s.ob = obsHook{plane: env.Obs, capacityWh: scn.UPS.CapacityWh}

	params := scn.Rack.ServerParams
	co := params.DesignCoeffs(refUtil)
	s.kPerCore = co.KWPerGHz * s.cfg.InitialKScale
	s.cSharePer = co.CIdleShareW
	s.fmin = params.PStates.Min()
	s.fmax = params.PStates.Max()
	s.idleEstW = env.Rack.EstimateIdlePower()

	n := len(env.Rack.BatchCores())
	s.cmdFreqs = env.Rack.BatchFreqs()
	s.rwBuf = make([]float64, n)
	s.appliedBuf = make([]float64, n)

	// Allocator: calibrated to the breaker unless overridden.
	acfg := alloc.DefaultConfig(scn.Breaker.RatedPower, scn.Breaker.TripBudget())
	if s.cfg.AllocOverride != nil {
		acfg = *s.cfg.AllocOverride
	}
	a, err := alloc.New(acfg)
	if err != nil {
		return fmt.Errorf("core: allocator: %w", err)
	}
	s.allocator = a

	// Controllers.
	s.kModel = s.kPerCore
	if err := s.rebuildControllers(n); err != nil {
		return err
	}
	if s.cfg.OnlineEstimation {
		// The estimated slope may roam over the physically plausible
		// range regardless of how wrong the initial model is.
		rls, err := control.NewRLS(clamp(s.kModel, 1, 50), 0.97, 1, 50)
		if err != nil {
			return fmt.Errorf("core: RLS: %w", err)
		}
		s.rls = rls
	}
	s.havePrev = false
	uc, err := control.NewUPSController(s.cfg.UPSCtl)
	if err != nil {
		return fmt.Errorf("core: UPS controller: %w", err)
	}
	s.upsctl = uc
	s.startHardening(env)
	return nil
}

// interactiveEstimate is the Eq. (5) interactive power estimate at peak
// frequency from the trace demand at time t.
func (s *SprintCon) interactiveEstimate(env *sim.Env, t float64) float64 {
	interCo := s.scn.Rack.ServerParams.InteractiveCoeffs()
	nInter := float64(len(env.Rack.InteractiveCores()))
	return nInter * (interCo.KWPerGHz*env.Trace.At(t) + interCo.CIdleShareW)
}

// rebuildControllers (re)creates the MPC and PI controllers for the
// current model slope s.kModel, and refreshes every quantity derived from
// the slope (batch power bounds, deadline-floor translation).
func (s *SprintCon) rebuildControllers(n int) error {
	s.pBatchMax = float64(n) * (s.kModel*s.fmax + s.cSharePer)
	s.pBatchMin = float64(n) * (s.kModel*s.fmin + s.cSharePer)
	k := make([]float64, n)
	for i := range k {
		k[i] = s.kModel
	}
	mcfg := control.DefaultMPCConfig(k)
	mcfg.PeriodS = s.cfg.ControlPeriodS
	mcfg.RefTimeConstS = s.cfg.RefTimeConstS
	mcfg.FMinGHz, mcfg.FMaxGHz = s.fmin, s.fmax
	mcfg.FullHorizon = s.cfg.Controller == ControllerMPCFull
	m, err := control.NewMPC(mcfg)
	if err != nil {
		return fmt.Errorf("core: MPC: %w", err)
	}
	s.mpc = m
	pcfg := control.DefaultPIConfig(n, s.kModel*float64(n))
	pcfg.PeriodS = s.cfg.ControlPeriodS
	pcfg.FMinGHz, pcfg.FMaxGHz = s.fmin, s.fmax
	pi, err := control.NewPI(pcfg)
	if err != nil {
		return fmt.Errorf("core: PI: %w", err)
	}
	s.pi = pi
	return nil
}

// ModelK returns the frequency slope the controllers currently use
// (exposed for the online-estimation ablation and tests).
func (s *SprintCon) ModelK() float64 { return s.kModel }

// Targets implements sim.TargetReporter.
func (s *SprintCon) Targets(float64) (pcbW, pbatchW float64) {
	return s.curPCb, s.curPBatch
}

// Tick implements sim.Policy.
func (s *SprintCon) Tick(env *sim.Env, snap sim.Snapshot) float64 {
	now := snap.Now
	pInterEst := env.Rack.EstimateInteractivePower()
	if s.hd.enabled() {
		// Defenses first, so everything below — the supervisor, the
		// allocator, both power controllers — sees the guarded
		// measurement and the watchdogs' verdicts.
		snap.MeasuredTotalW = s.guardMeasurement(env, snap.MeasuredTotalW, pInterEst)
		s.watchUPS(env, snap)
	}
	before := s.mode
	s.updateMode(snap)
	if s.mode != before && env.Events != nil {
		env.Events.Logf("mode", "supervisor %s → %s (thermal %.2f, SoC %.2f)",
			before, s.mode, snap.CBThermalFraction, snap.UPSSoC)
	}
	pcb := s.effectivePCb(now)
	s.curPCb = pcb
	s.checkTickInvariants(env, snap)

	s.allocator.ObserveHeadroom(pInterEst, now)

	// Server power control at its own (slower) cadence.
	if now-s.lastCtl >= s.cfg.ControlPeriodS-1e-9 {
		s.lastCtl = now
		s.serverPowerControl(env, snap, pcb, pInterEst)
	}

	// Interactive cores: peak frequency while sprinting; bid-throttled
	// only in the degraded CB-only/ended modes.
	s.manageInteractive(env, pcb, pInterEst)

	// UPS power control: cover everything the CB budget does not.
	var req float64
	if s.mode != ModeCBOnly && s.mode != ModeEnded && !math.IsInf(pcb, 1) && !s.upsBlocked() {
		req = s.upsctl.Step(snap.MeasuredTotalW, snap.CBPowerW, pcb)
	}
	if s.hd.enabled() {
		s.hd.upsLastReqW = req
	}
	if s.tm.enabled {
		s.tm.pcbW.Set(pcb)
		s.tm.pbatchW.Set(s.curPBatch)
		s.tm.reserveW.Set(s.allocator.InteractiveReserveW())
		s.tm.shiftW.Set(s.allocator.DeadlineShiftW())
		s.tm.modeNum.Set(float64(s.mode))
		s.tm.upsReqW.Set(req)
	}
	if s.pending != nil {
		// The control period's decision record becomes complete only
		// here, where the UPS request is known.
		env.Decisions.Emit(s.buildDecision(s.pending, req, snap.UPSSoC))
		s.pending = nil
	}
	s.observePlane(env, snap, pcb)
	return req
}

// updateMode advances the supervisor state machine.
func (s *SprintCon) updateMode(snap sim.Snapshot) {
	if s.cfg.NoSprint {
		// Permanent power capping: exactly the degraded CB-only
		// behaviour, with the budget pinned at the rating.
		s.mode = ModeEnded
		return
	}
	if snap.CBNearTrip || snap.CBTripped {
		s.everNearTrip = true
	}
	if snap.UPSDepleted || (s.hd.enabled() && s.hd.upsFailed) {
		// A discharge path that stopped delivering is exactly as gone
		// as an empty battery, whatever the SoC gauge claims.
		s.everDepleted = true
	}
	switch {
	case s.everNearTrip && s.everDepleted:
		s.mode = ModeEnded
		if s.allocator.Started() {
			s.allocator.EndBurst()
		}
	case s.everDepleted:
		s.mode = ModeCBOnly
	case snap.CBNearTrip:
		// Not sticky: once the breaker cools below the near-trip
		// fraction, scheduled overloading may resume.
		s.mode = ModeNoOverload
	default:
		if s.mode == ModeNoOverload {
			s.mode = ModeNormal
		}
	}
}

// upsBlocked reports whether the external budget forbids UPS discharge.
// Without the UPS the allocator's plan (P_cb + planned discharge) is not
// actuatable — the excess would land on the breaker — so every consumer of
// the plan must fall back to the CB-only feedback law while this holds.
func (s *SprintCon) upsBlocked() bool { return s.ext.Active && !s.ext.AllowUPS }

// effectivePCb applies the supervisor's overrides to the scheduled P_cb.
func (s *SprintCon) effectivePCb(now float64) float64 {
	var pcb float64
	switch s.mode {
	case ModeEnded:
		return s.scn.Breaker.RatedPower
	case ModeNoOverload:
		pcb = math.Min(s.allocator.PCb(now), s.scn.Breaker.RatedPower)
	default:
		pcb = s.allocator.PCb(now)
	}
	if s.hd.enabled() && s.hd.degraded {
		// Telemetry watchdog: never overload the breaker on readings
		// the guard cannot vouch for — fail safe to the rated budget
		// until confidence recovers.
		pcb = math.Min(pcb, s.scn.Breaker.RatedPower)
	}
	if now < s.failSafeUntil {
		// Post-restart fail-safe: the breaker's true thermal state is
		// unknown, so hold the rated budget until a full recovery time
		// has passed and the worst-case accumulator has drained.
		pcb = math.Min(pcb, s.scn.Breaker.RatedPower)
	}
	if s.ext.Active {
		// Cluster lease budget: tighten-only, never raise.
		if !s.ext.AllowOverload {
			pcb = math.Min(pcb, s.scn.Breaker.RatedPower)
		}
		if s.ext.PCbCapW > 0 {
			pcb = math.Min(pcb, s.ext.PCbCapW)
		}
	}
	return pcb
}

// enterFailSafe suspends breaker overloads for one full breaker recovery
// time from now: whatever thermal margin the breaker had really consumed
// before the crash, holding the rated budget that long drains it.
func (s *SprintCon) enterFailSafe(env *sim.Env, now float64, reason string) {
	until := now + s.scn.Breaker.RecoveryTime
	if until > s.failSafeUntil {
		s.failSafeUntil = until
	}
	if env != nil && env.Events != nil {
		env.Events.Logf("failsafe", "controller restart without trustworthy checkpoint (%s): CB budget capped at rated %.0f W until t=%.0f s",
			reason, s.scn.Breaker.RatedPower, s.failSafeUntil)
	}
}

// serverPowerControl runs one allocator + controller period.
func (s *SprintCon) serverPowerControl(env *sim.Env, snap sim.Snapshot, pcb, pInterEst float64) {
	now := snap.Now
	pDeadline, urgency := s.deadlinePowerFloor(env, now)
	updated := s.allocator.MaybeUpdatePBatch(now, pDeadline, s.pBatchMin, s.pBatchMax)
	if updated {
		s.tm.allocMoves.Inc()
	}

	pfb := env.Rack.BatchFeedback(snap.MeasuredTotalW)

	// Online model estimation: last period's frequency move and the
	// observed batch power change form one (ΔF, Δp) observation.
	if s.rls != nil {
		if s.havePrev {
			s.rls.Observe(s.lastMoveSum, pfb-s.prevPfb, 1.0)
			if k := s.rls.K(); math.Abs(k-s.kModel)/s.kModel > 0.05 {
				s.kModel = k
				if err := s.rebuildControllers(len(s.cmdFreqs)); err != nil {
					panic(fmt.Sprintf("core: rebuild controllers: %v", err)) // structurally impossible
				}
			}
		}
		s.prevPfb = pfb
		s.havePrev = true
	}

	target := clamp(s.allocator.PBatchAt(now), s.pBatchMin, s.pBatchMax)
	if s.mode == ModeCBOnly || s.mode == ModeEnded || s.upsBlocked() {
		// UPS exhausted: all workloads must fit under P_cb (derated so
		// the breaker's thermal state can decay). The Eq. (5)
		// interactive estimate is biased once interactive cores are
		// throttled below peak, so close the loop on the *measured
		// total* instead: the batch target is the current batch
		// feedback plus however far the total is from the safe budget
		// — any shared estimator bias cancels.
		// The target may sit below the linear-model batch floor: the
		// estimator biases cancel through the feedback, and the MPC's
		// frequency box constraints enforce the physical floor.
		safe := pcb * (1 - cbOnlyMarginFrac)
		target = clamp(pfb+safe-snap.MeasuredTotalW, 0, s.pBatchMax)
		s.allocator.SetReserve(pInterEst)
	}
	if env.Events != nil && env.Events.Enabled() && math.Abs(target-s.curPBatch) > 0.10*math.Max(1, s.curPBatch) {
		env.Events.Logf("pbatch", "batch budget %.0f W → %.0f W (reserve %.0f W, shift %+.0f W)",
			s.curPBatch, target, s.allocator.InteractiveReserveW(), s.allocator.DeadlineShiftW())
	}
	s.curPBatch = target
	rweights := env.Rack.RWeightsInto(s.rwBuf, now)
	// Exclude cores with unresponsive actuators (and dark servers) from
	// the move set: the optimizer must not budget power moves onto
	// actuators that will not execute them.
	var locked []bool
	if s.hd.enabled() {
		locked = s.lockedMask(env)
	}
	var solveStart time.Time
	if s.tm.enabled {
		solveStart = time.Now()
	}
	var next []float64
	var err error
	if s.cfg.Controller == ControllerPI {
		next = s.pi.Step(pfb, target, s.cmdFreqs)
	} else if locked != nil {
		next, err = s.mpc.StepLocked(pfb, target, s.cmdFreqs, rweights, locked)
	} else {
		next, err = s.mpc.Step(pfb, target, s.cmdFreqs, rweights)
	}
	if s.tm.enabled {
		// Wall-clock solve time lives only in this histogram, never in
		// the decision trace, so traces stay deterministic.
		s.tm.solveSeconds.Observe(time.Since(solveStart).Seconds())
		if s.cfg.Controller != ControllerPI && err == nil {
			stats := s.mpc.LastSolve()
			s.tm.qpIterations.Observe(float64(stats.Sweeps))
			if !stats.Converged {
				s.tm.qpUnconverged.Inc()
			}
		}
	}
	if err != nil {
		return // keep previous actuation; the QP cannot fail on valid state
	}
	if s.hd.enabled() {
		s.applyProbes(next)
	}
	if s.rls != nil {
		s.lastMoveSum = 0
		for i := range next {
			s.lastMoveSum += next[i] - s.cmdFreqs[i]
		}
	}
	if env.Decisions != nil {
		in := &decisionInputs{
			now:            now,
			pfbW:           pfb,
			targetW:        target,
			deadlineFloorW: pDeadline,
			urgency:        urgency,
			headroomUtil:   headroomUtil(pcb, target, s.idleEstW, pInterEst),
			updated:        updated,
			rweights:       rweights,
			freqs:          next,
			qp:             s.cfg.Controller != ControllerPI,
		}
		for _, l := range locked {
			if l {
				in.lockedCount++
			}
		}
		if in.qp {
			stats := s.mpc.LastSolve()
			in.qpSweeps, in.qpConverged = stats.Sweeps, stats.Converged
			in.refTraj = s.mpc.ReferenceTrajectory(pfb, target)
		}
		s.pending = in
	}
	s.checkControlInvariants(env, next, urgency)
	// The controllers reuse their output buffer across periods, so copy
	// rather than alias; aliasing would also zero the RLS move delta.
	copy(s.cmdFreqs, next)
	applied, aerr := env.Rack.SetBatchFreqsInto(next, s.appliedBuf)
	if aerr != nil {
		panic(fmt.Sprintf("core: SetBatchFreqsInto: %v", aerr)) // structural bug
	}
	if s.hd.enabled() {
		s.observeActuation(env, next, applied)
	}
	s.observeActuationMetrics(env)
	s.observeControlPeriod(next, applied, urgency, s.cfg.Controller != ControllerPI)
}

// deadlinePowerFloor estimates the batch power needed so every incomplete
// job still meets its deadline (paper Section IV-B factor 1), using the
// progress model to translate required rates into frequencies and the
// linear design model to translate frequencies into power. The second
// return is the deadline urgency for the decision trace: the largest
// unclamped per-job required frequency as a fraction of peak (1 means some
// job needs peak from now on; > 1 means a miss is already unavoidable).
func (s *SprintCon) deadlinePowerFloor(env *sim.Env, now float64) (floorW, urgency float64) {
	for _, ref := range env.Rack.BatchCores() {
		j := env.Rack.Job(ref)
		if j == nil || j.Completed() {
			floorW += s.kModel*s.fmin + s.cSharePer
			continue
		}
		req := j.RequiredFreq(now, s.fmax)
		urgency = math.Max(urgency, req/s.fmax)
		f := clamp(req, s.fmin, s.fmax)
		floorW += s.kModel*f + s.cSharePer
	}
	return floorW, urgency
}

// manageInteractive keeps interactive cores at peak frequency, or bids them
// down proportionally when the degraded modes leave too little CB budget.
func (s *SprintCon) manageInteractive(env *sim.Env, pcb, pInterEst float64) {
	if s.mode != ModeCBOnly && s.mode != ModeEnded && !s.upsBlocked() {
		env.Rack.SetInteractiveFreq(s.fmax)
		return
	}
	avail := pcb*(1-cbOnlyMarginFrac) - s.idleEstW - s.pBatchMin
	if pInterEst <= 0 || avail >= pInterEst {
		env.Rack.SetInteractiveFreq(s.fmax)
		return
	}
	scale := clamp(avail/pInterEst, minInteractiveFreqNorm, 1)
	env.Rack.SetInteractiveFreq(scale * s.fmax)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

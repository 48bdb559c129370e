package sim

import (
	"fmt"
	"hash/fnv"
	"math"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/telemetry"
)

// Checkpointable is optionally implemented by policies whose complete
// control state can be exported into a checkpoint and restored after a
// crash (DESIGN.md §11). RestoreCheckpoint with a nil state is the
// fail-safe restart: the policy must come up in its worst-case-safe
// configuration and re-estimate from live telemetry. Restores must not
// actuate the rack — the plant kept running while the controller was down.
type Checkpointable interface {
	Policy
	ExportCheckpoint(now float64) checkpoint.ControllerState
	RestoreCheckpoint(env *Env, scn Scenario, st *checkpoint.ControllerState, now float64) error
}

// CheckpointOptions enables control-state snapshots during a run.
type CheckpointOptions struct {
	// Store receives one snapshot per capture and serves the latest one
	// back at controller restarts. Nil disables capture (injected
	// controller crashes then always restart fail-safe).
	Store checkpoint.Store
	// EveryS is the capture cadence in simulated seconds; 0 captures every
	// tick (what bit-identical crash/restore continuation requires).
	EveryS float64
	// MaxAgeS, when positive, makes a restart discard snapshots older than
	// this and take the fail-safe path instead.
	MaxAgeS float64
}

// ScenarioSum fingerprints the scenario configuration: FNV-64a over its
// canonical JSON. Snapshots embed it so a restore can reject state from a
// run whose plant it does not describe.
func ScenarioSum(scn Scenario) (uint64, error) {
	h := fnv.New64a()
	if err := scn.WriteJSON(h); err != nil {
		return 0, fmt.Errorf("sim: scenario fingerprint: %w", err)
	}
	return h.Sum64(), nil
}

// ckptMetrics holds the engine's checkpoint/restart instruments. They are
// registered only for runs that checkpoint or inject controller crashes, so
// ordinary runs' telemetry is unchanged.
type ckptMetrics struct {
	enabled  bool
	saves    *telemetry.Counter
	saveErrs *telemetry.Counter
	bytes    *telemetry.Gauge
	ageS     *telemetry.Gauge
	restarts *telemetry.Counter
	failSafe *telemetry.Counter
}

func newCkptMetrics(r *telemetry.Registry) ckptMetrics {
	if r == nil {
		return ckptMetrics{}
	}
	return ckptMetrics{
		enabled: true,
		saves:   r.Counter("checkpoint_saves_total", "control-state snapshots persisted"),
		saveErrs: r.Counter("checkpoint_save_errors_total",
			"snapshot captures that failed to persist"),
		bytes: r.Gauge("checkpoint_bytes",
			"encoded size of the latest snapshot (0 for in-memory stores)"),
		ageS: r.Gauge("checkpoint_age_seconds",
			"simulated seconds since the latest snapshot"),
		restarts: r.Counter("ctl_restarts_total",
			"controller restarts after injected crashes"),
		failSafe: r.Counter("ctl_failsafe_restarts_total",
			"controller restarts without a usable checkpoint (fail-safe)"),
	}
}

// ckRuntime is the engine-side checkpoint and controller-crash state of one
// run. It exists only when the run checkpoints or its fault plan contains a
// controller crash; fault-free uncheckpointed runs keep the legacy path.
type ckRuntime struct {
	store   checkpoint.Store
	everyS  float64
	maxAgeS float64
	p       Policy
	cp      Checkpointable // nil when the policy cannot checkpoint
	scn     Scenario
	sum     uint64
	cm      ckptMetrics

	lastSaveS float64
	haveSave  bool
	saves     int64
	lastBytes int

	ctlDead      bool
	ctlRestartAt float64
	restarts     int
	failsafes    int
}

func newCkRuntime(p Policy, scn Scenario, opts RunOptions) (*ckRuntime, error) {
	hasCrash := false
	for _, f := range scn.Faults.Faults {
		if f.Kind == faults.ControllerCrash {
			hasCrash = true
			break
		}
	}
	if opts.Checkpoint == nil && !hasCrash {
		return nil, nil
	}
	sum, err := ScenarioSum(scn)
	if err != nil {
		return nil, err
	}
	c := &ckRuntime{
		p:            p,
		scn:          scn,
		sum:          sum,
		cm:           newCkptMetrics(opts.Metrics),
		lastSaveS:    math.Inf(-1),
		ctlRestartAt: math.Inf(-1),
	}
	c.cp, _ = p.(Checkpointable)
	if opts.Checkpoint != nil {
		c.store = opts.Checkpoint.Store
		c.everyS = opts.Checkpoint.EveryS
		c.maxAgeS = opts.Checkpoint.MaxAgeS
	}
	return c, nil
}

// noteCrash records an injected controller-crash onset: the controller is
// dead from now until now+delayS (overlapping crashes extend the window).
func (c *ckRuntime) noteCrash(env *Env, now, delayS float64) {
	restartAt := now + delayS
	if !c.ctlDead {
		c.ctlDead = true
		c.ctlRestartAt = restartAt
		env.Events.Logf("ctl-crash", "controller process died; restart scheduled in %g s", delayS)
		return
	}
	if restartAt > c.ctlRestartAt {
		c.ctlRestartAt = restartAt
	}
}

// maybeRestart brings a dead controller back once its restart time arrives:
// from the latest usable checkpoint when one exists, through the policy's
// fail-safe restore otherwise. It is called on powered ticks just before
// the policy would tick.
func (c *ckRuntime) maybeRestart(env *Env, now float64) error {
	if !c.ctlDead || now < c.ctlRestartAt-1e-9 {
		return nil
	}
	c.ctlDead = false
	c.restarts++
	c.cm.restarts.Inc()

	if c.cp == nil {
		// The policy cannot restore state; a cold start is all there is.
		env.Events.Logf("ctl-restart", "controller restarted cold (policy %s does not checkpoint)", c.p.Name())
		if err := c.p.Start(env, c.scn); err != nil {
			return fmt.Errorf("sim: controller restart: %w", err)
		}
		return nil
	}

	var st *checkpoint.ControllerState
	reason := "no checkpoint store"
	if c.store != nil {
		last, err := c.store.Latest()
		switch {
		case err != nil:
			reason = fmt.Sprintf("checkpoint unusable: %v", err)
		case last == nil:
			reason = "no checkpoint on record"
		case last.PolicyName != c.p.Name():
			reason = fmt.Sprintf("checkpoint belongs to policy %q", last.PolicyName)
		case last.ScenarioSum != c.sum:
			reason = "checkpoint fingerprints a different scenario"
		case !last.HasController:
			reason = "checkpoint carries no controller state"
		case c.maxAgeS > 0 && now-last.SimTimeS > c.maxAgeS+1e-9:
			reason = fmt.Sprintf("checkpoint %.0f s stale (limit %.0f s)", now-last.SimTimeS, c.maxAgeS)
		default:
			st = &last.Controller
		}
	}
	if st != nil {
		err := c.cp.RestoreCheckpoint(env, c.scn, st, now)
		if err == nil {
			env.Events.Logf("ctl-restart", "controller restored from checkpoint t=%g s", st.CapturedAtS)
			return nil
		}
		reason = fmt.Sprintf("checkpoint rejected: %v", err)
	}
	c.failsafes++
	c.cm.failSafe.Inc()
	env.Events.Logf("ctl-restart", "controller restarted fail-safe (%s)", reason)
	if err := c.cp.RestoreCheckpoint(env, c.scn, nil, now); err != nil {
		return fmt.Errorf("sim: fail-safe controller restart: %w", err)
	}
	return nil
}

// capture serializes the run state at the boundary after the current tick
// (tNext, stepNext are the time and index of the next tick to execute).
// While the controller is dead nothing is saved: the checkpointer is part
// of the controller process, and overwriting the last pre-crash snapshot
// with controller-less state would defeat the restore.
func (c *ckRuntime) capture(r *Runner, tNext float64, stepNext int) {
	if c.store == nil || c.ctlDead {
		return
	}
	if c.cm.enabled && c.haveSave {
		c.cm.ageS.Set(tNext - c.lastSaveS)
	}
	if c.haveSave && c.everyS > 0 && tNext < c.lastSaveS+c.everyS-1e-9 {
		return
	}
	n, err := c.store.Save(r.snapshotAt(tNext, stepNext, c.sum))
	if err != nil {
		c.cm.saveErrs.Inc()
		r.env.Events.Logf("checkpoint", "save failed: %v", err)
		return
	}
	c.saves++
	c.lastBytes = n
	c.lastSaveS = tNext
	c.haveSave = true
	if c.cm.enabled {
		c.cm.saves.Inc()
		c.cm.bytes.Set(float64(n))
		c.cm.ageS.Set(0)
	}
}

// snapshotAt builds the run's checkpoint.Snapshot for the tick boundary at
// time t and step, the position of the next tick to execute, under the
// scenario fingerprint sum. The checkpoint cadence and ExportSnapshot both
// build through it.
func (r *Runner) snapshotAt(t float64, step int, sum uint64) *checkpoint.Snapshot {
	sp := &checkpoint.Snapshot{
		Version:     checkpoint.Version,
		SimTimeS:    t,
		Step:        int64(step),
		PolicyName:  r.p.Name(),
		ScenarioSum: sum,
	}
	if cp, ok := r.p.(Checkpointable); ok {
		sp.HasController = true
		sp.Controller = cp.ExportCheckpoint(t)
	}
	sp.Plant = checkpoint.PlantState{
		Breaker: r.env.Breaker.ExportState(),
		UPS:     r.env.UPS.ExportState(),
		Rack:    r.env.Rack.ExportState(),
		Engine: checkpoint.EngineState{
			Outage:          r.outage,
			OutageS:         r.res.OutageS,
			CBTrips:         r.res.CBTrips,
			ControlledTicks: r.controlledTicks,
			OverTicks:       r.overTicks,
			TrackErrSum:     r.trackErrSum,
			EventSeq:        r.env.Events.Len(),
			Snap:            snapToState(r.snap),
		},
	}
	if r.inj != nil {
		sp.Plant.HasInjector = true
		sp.Plant.Injector = r.inj.ExportState()
	}
	return sp
}

func snapToState(s Snapshot) checkpoint.SnapState {
	return checkpoint.SnapState{
		NowS:              s.Now,
		DtS:               s.Dt,
		MeasuredTotalW:    s.MeasuredTotalW,
		CBPowerW:          s.CBPowerW,
		UPSPowerW:         s.UPSPowerW,
		CBThermalFraction: s.CBThermalFraction,
		CBNearTrip:        s.CBNearTrip,
		CBTripped:         s.CBTripped,
		UPSSoC:            s.UPSSoC,
		UPSDepleted:       s.UPSDepleted,
		Outage:            s.Outage,
	}
}

func snapFromState(st checkpoint.SnapState) Snapshot {
	return Snapshot{
		Now:               st.NowS,
		Dt:                st.DtS,
		MeasuredTotalW:    st.MeasuredTotalW,
		CBPowerW:          st.CBPowerW,
		UPSPowerW:         st.UPSPowerW,
		CBThermalFraction: st.CBThermalFraction,
		CBNearTrip:        st.CBNearTrip,
		CBTripped:         st.CBTripped,
		UPSSoC:            st.UPSSoC,
		UPSDepleted:       st.UPSDepleted,
		Outage:            st.Outage,
	}
}

// ExportSnapshot captures the run's complete state at the current tick
// boundary — the position of the next tick to execute — as a validated
// checkpoint.Snapshot, independent of any per-rack CheckpointOptions
// cadence. Lock-step drivers use it to assemble *coherent* multi-rack
// snapshots: calling it on every rack of a row between two lock-step ticks
// yields one snapshot per rack, all at the same step, which is what a
// service-level restart needs to resume the whole row (per-rack
// CheckpointOptions captures skip ticks while an injected crash holds the
// controller down, so their latest steps can disagree across racks).
//
// Policies that do not implement Checkpointable still get a plant-only
// snapshot (HasController false); a resume then restarts the policy fresh
// against the restored plant.
func (r *Runner) ExportSnapshot() (*checkpoint.Snapshot, error) {
	if r.scnSum == 0 {
		sum, err := ScenarioSum(r.scn)
		if err != nil {
			return nil, err
		}
		r.scnSum = sum
	}
	sp := r.snapshotAt(r.Now(), r.step, r.scnSum)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// resumeState is what applyResume hands back to the tick loop.
type resumeState struct {
	startStep   int
	outage      bool
	controlled  int
	over        int
	trackErrSum float64
	snap        Snapshot
}

// applyResume restores the full process state — plant, engine accumulators,
// injector, controller — from a snapshot, for runs resumed with
// RunOptions.Resume. The policy side goes through RestoreCheckpoint when
// the policy supports it (fail-safe when the snapshot carries no controller
// state); other policies start fresh against the restored plant.
func applyResume(env *Env, scn Scenario, p Policy, inj *faults.Injector, sp *checkpoint.Snapshot, res *Result) (resumeState, error) {
	var rs resumeState
	if err := sp.Validate(); err != nil {
		return rs, err
	}
	sum, err := ScenarioSum(scn)
	if err != nil {
		return rs, err
	}
	steps := int(math.Round(scn.DurationS / scn.DtS))
	switch {
	case sp.PolicyName != p.Name():
		return rs, fmt.Errorf("sim: resume: snapshot belongs to policy %q, running %q", sp.PolicyName, p.Name())
	case sp.ScenarioSum != sum:
		return rs, fmt.Errorf("sim: resume: snapshot fingerprints a different scenario (%016x, want %016x)", sp.ScenarioSum, sum)
	case sp.Step > int64(steps):
		return rs, fmt.Errorf("sim: resume: snapshot step %d beyond the scenario's %d steps", sp.Step, steps)
	case math.Abs(sp.SimTimeS-float64(sp.Step)*scn.DtS) > 1e-6:
		return rs, fmt.Errorf("sim: resume: snapshot time %g s disagrees with step %d at dt %g s", sp.SimTimeS, sp.Step, scn.DtS)
	}
	if err := env.Breaker.RestoreState(sp.Plant.Breaker); err != nil {
		return rs, err
	}
	if err := env.UPS.RestoreState(sp.Plant.UPS); err != nil {
		return rs, err
	}
	if err := env.Rack.RestoreState(sp.Plant.Rack); err != nil {
		return rs, err
	}
	if sp.Plant.HasInjector != (inj != nil) {
		return rs, fmt.Errorf("sim: resume: snapshot injector state (%v) disagrees with the scenario's fault plan (%v)",
			sp.Plant.HasInjector, inj != nil)
	}
	if inj != nil {
		if err := inj.RestoreState(sp.Plant.Injector); err != nil {
			return rs, err
		}
	}
	e := sp.Plant.Engine
	res.OutageS = e.OutageS
	res.CBTrips = e.CBTrips
	env.Events.SetBase(e.EventSeq)
	rs.startStep = int(sp.Step)
	rs.outage = e.Outage
	rs.controlled = e.ControlledTicks
	rs.over = e.OverTicks
	rs.trackErrSum = e.TrackErrSum
	rs.snap = snapFromState(e.Snap)

	if cp, ok := p.(Checkpointable); ok {
		var st *checkpoint.ControllerState
		if sp.HasController {
			st = &sp.Controller
		}
		if err := cp.RestoreCheckpoint(env, scn, st, sp.SimTimeS); err != nil {
			return rs, fmt.Errorf("sim: resume: %w", err)
		}
	} else if err := p.Start(env, scn); err != nil {
		return rs, fmt.Errorf("sim: resume: policy %s start: %w", p.Name(), err)
	}
	return rs, nil
}

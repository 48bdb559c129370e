package sim

import (
	"fmt"
	"math"
	"time"

	"sprintcon/internal/faults"
	"sprintcon/internal/rack"
	"sprintcon/internal/telemetry"
)

// Runner is the steppable form of the simulation engine: NewRunner builds
// the environment and binds the policy exactly as RunWith does, Step
// advances one tick, and Finish assembles the Result. RunWith is the
// convenience loop over a Runner, so single-rack runs and lock-step linked
// runs (hier.RunLinked, which interleaves each row's coordinator and
// message transport between rack ticks) share one engine and stay
// bit-identical.
type Runner struct {
	scn  Scenario
	p    Policy
	opts RunOptions

	env    *Env
	res    *Result
	inj    *faults.Injector
	ckr    *ckRuntime
	scnSum uint64 // lazy scenario fingerprint for ExportSnapshot

	reporter TargetReporter
	em       engineMetrics

	steps  int
	step   int
	dt     float64
	stride int // record every stride-th tick into the series (≥1)

	outage          bool
	controlledTicks int
	overTicks       int
	trackErrSum     float64
	lastCBW         float64
	snap            Snapshot

	// ev is the discrete-event core's state; RunWith builds it, and it stays
	// nil for runs that can never open a span.
	ev *eventCore

	finished bool
}

// NewRunner validates the scenario, builds the environment and starts (or
// resumes) the policy, leaving the run positioned before its first tick.
func NewRunner(scn Scenario, p Policy, opts RunOptions) (*Runner, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	env, err := BuildEnv(scn)
	if err != nil {
		return nil, err
	}
	env.Metrics = opts.Metrics
	env.Decisions = opts.Decisions
	env.Obs = opts.Obs
	if opts.DropEvents {
		env.Events.Discard()
	}

	res := &Result{Policy: p.Name(), Scenario: scn, MaxCompletionTimeS: math.NaN()}
	res.InteractiveDemand = env.Trace.Summary()
	res.Series.DtS = scn.DtS

	// Fault injection: nil when the plan is empty, so fault-free runs
	// follow the exact legacy code path (bit-identical results). Built
	// before the policy binds so a resumed run restores it first.
	var inj *faults.Injector
	if !scn.Faults.Empty() {
		inj = faults.NewInjector(scn.Faults, scn.DtS)
	}

	// Checkpoint/crash runtime: nil unless the run checkpoints or its
	// fault plan kills the controller, keeping ordinary runs untouched.
	ckr, err := newCkRuntime(p, scn, opts)
	if err != nil {
		return nil, err
	}

	stride := opts.SeriesStride
	if stride < 1 {
		stride = 1
	}
	r := &Runner{
		scn:    scn,
		p:      p,
		opts:   opts,
		env:    env,
		res:    res,
		inj:    inj,
		ckr:    ckr,
		steps:  int(math.Round(scn.DurationS / scn.DtS)),
		dt:     scn.DtS,
		stride: stride,
	}
	if opts.Resume != nil {
		rs, err := applyResume(env, scn, p, inj, opts.Resume, res)
		if err != nil {
			return nil, err
		}
		r.step = rs.startStep
		r.outage = rs.outage
		r.controlledTicks, r.overTicks, r.trackErrSum = rs.controlled, rs.over, rs.trackErrSum
		r.snap = rs.snap
	} else {
		if err := p.Start(env, scn); err != nil {
			return nil, fmt.Errorf("sim: policy %s start: %w", p.Name(), err)
		}
		initialMeasured := env.Rack.MeasuredPower()
		if inj != nil {
			// Primes the injector's last-reading state before any fault is
			// active, so an onset-0 freeze holds a real pre-fault value.
			initialMeasured = inj.FilterMeasurement(initialMeasured)
		}
		r.snap = Snapshot{
			Dt:             r.dt,
			MeasuredTotalW: initialMeasured,
			CBPowerW:       env.Rack.TruePower(),
			UPSSoC:         env.UPS.SoC(),
		}
	}
	res.Series.grow((r.steps-r.step+stride-1)/stride + 1)

	r.reporter, _ = p.(TargetReporter)
	// Engine telemetry: instruments resolve to nil-safe no-ops when
	// opts.Metrics is nil, and the wall clock is only read when enabled.
	r.em = newEngineMetrics(opts.Metrics)
	return r, nil
}

// Now returns the simulation time of the next tick to execute.
func (r *Runner) Now() float64 { return float64(r.step) * r.dt }

// StepIndex returns the index of the next tick to execute.
func (r *Runner) StepIndex() int { return r.step }

// StepsTotal returns the run's total tick count.
func (r *Runner) StepsTotal() int { return r.steps }

// Done reports whether every tick has executed.
func (r *Runner) Done() bool { return r.step >= r.steps }

// ControllerDead reports whether a controller-crash fault currently has the
// rack's controller process down (always false without checkpointing).
func (r *Runner) ControllerDead() bool { return r.ckr != nil && r.ckr.ctlDead }

// Dark reports whether the rack is currently in a power outage (breaker open
// with the UPS exhausted): nothing executes, so a dark rack can neither send
// heartbeats nor act on grants.
func (r *Runner) Dark() bool { return r.outage }

// LastCBPowerW returns the breaker-conducted power of the most recent tick
// (0 before the first). Lock-step cluster runs sum this across racks into
// the feeder draw without touching the plant's noise streams.
func (r *Runner) LastCBPowerW() float64 { return r.lastCBW }

// status refreshes the live /status snapshot when the run is instrumented.
func (r *Runner) status(now float64, pTotal, cbW, upsW float64, done bool) {
	if r.opts.Status == nil {
		return
	}
	ss := telemetry.StatusSnapshot{
		Policy:    r.p.Name(),
		NowS:      now,
		DurationS: r.scn.DurationS,
		Progress:  math.Min(1, now/r.scn.DurationS),
		Ticks:     int64(r.res.nTicks),
		TotalW:    pTotal,
		CBW:       cbW,
		UPSW:      upsW,
		SoC:       r.env.UPS.SoC(),
		CBTrips:   r.res.CBTrips,
		OutageS:   r.res.OutageS,
		Done:      done,
	}
	if r.ckr != nil {
		ss.CheckpointSaves = r.ckr.saves
		ss.CheckpointBytes = r.ckr.lastBytes
		if r.ckr.haveSave {
			ss.CheckpointAgeS = math.Max(0, now-r.ckr.lastSaveS)
		}
		ss.CtlRestarts = r.ckr.restarts
		ss.CtlFailSafeRestarts = r.ckr.failsafes
	}
	r.opts.Status.Set(ss)
}

// Step advances the simulation by one tick. Calling Step on a finished run
// is a no-op returning nil.
func (r *Runner) Step() error {
	if r.Done() {
		return nil
	}
	env, res, inj, ckr, dt := r.env, r.res, r.inj, r.ckr, r.dt
	scn := r.scn
	now := float64(r.step) * dt
	var tickStart time.Time
	if r.em.enabled {
		tickStart = time.Now()
	}
	env.Events.SetNow(now)
	env.Rack.SetAmbient(scn.AmbientBaseC + scn.AmbientSwingC*math.Sin(2*math.Pi*now/1800))

	if inj != nil {
		onsets, clears := inj.Step(now)
		for _, f := range onsets {
			env.Events.Logf("fault-onset", "%s", f)
			if f.Kind == faults.ControllerCrash {
				// ckr is always non-nil when the plan contains a
				// controller crash (newCkRuntime guarantees it).
				ckr.noteCrash(env, now, f.Severity)
			}
		}
		for _, f := range clears {
			env.Events.Logf("fault-clear", "%s cleared", f.Kind)
		}
		if len(onsets)+len(clears) > 0 {
			for i, st := range inj.ServerStates(scn.Rack.NumServers) {
				env.Rack.SetFaultState(i, rack.FaultState{
					Offline: st.Offline,
					Stuck:   st.Stuck,
					LagFrac: st.LagFrac,
				})
			}
		}
	}

	if r.outage {
		// The rack is dark: breaker cools; nothing executes.
		env.Breaker.Cool(dt)
		if env.Breaker.CanReclose() {
			if err := env.Breaker.Reclose(); err == nil {
				r.outage = false
				env.Events.Logf("cb-reclose", "breaker recovered; rack re-powered")
			}
		}
	}
	if r.outage {
		res.OutageS += dt
		r.lastCBW = 0
		recordTick(res, r.reporter, now, 0, 0, 0, 0, 0, env, r.step%r.stride == 0)
		r.snap = nextSnapshot(now+dt, dt, 0, 0, 0, env, true)
		if inj != nil {
			r.snap.UPSSoC, r.snap.UPSDepleted = inj.FilterSoC(r.snap.UPSSoC, r.snap.UPSDepleted)
		}
		if ckr != nil {
			ckr.capture(r, now+dt, r.step+1)
		}
		if r.em.enabled {
			r.em.outageS.Add(dt)
			r.em.observeTick(now, 0, 0, 0, env)
			r.em.tickSeconds.Observe(time.Since(tickStart).Seconds())
		}
		r.status(now, 0, 0, 0, false)
		r.step++
		return nil
	}

	// Workload arrives; policy senses and actuates.
	env.Rack.ApplyInteractiveDemand(env.Trace.At(now))
	r.snap.Now = now
	var upsReq float64
	ctlDead := false
	if ckr != nil {
		if err := ckr.maybeRestart(env, now); err != nil {
			return err
		}
		ctlDead = ckr.ctlDead
	}
	if !ctlDead {
		upsReq = r.p.Tick(env, r.snap)
	}
	// A dead controller issues nothing: the rack holds its last
	// commanded frequencies and the UPS receives no request.
	if upsReq < 0 || math.IsNaN(upsReq) {
		upsReq = 0
	}

	pTotal := env.Rack.TruePower()
	measured := env.Rack.Measure(pTotal)
	if inj != nil {
		measured = inj.FilterMeasurement(measured)
	}
	upsPathOpen := inj != nil && inj.UPSPathFailed()

	var cbW, upsW float64
	if !env.Breaker.Tripped() {
		if !upsPathOpen {
			upsW = env.UPS.Discharge(upsReq, pTotal, dt)
		}
		cbW = env.Breaker.Step(pTotal-upsW, dt)
		if env.Breaker.Tripped() {
			res.CBTrips++
			r.em.trips.Inc()
			env.Events.Logf("cb-trip", "breaker tripped at %.0f W conducted", cbW)
		}
	} else {
		// Open breaker: cool toward reclose; the UPS must carry
		// the whole rack or the rack goes dark.
		env.Breaker.Cool(dt)
		if env.Breaker.CanReclose() {
			_ = env.Breaker.Reclose()
		}
		if !upsPathOpen {
			upsW = env.UPS.Discharge(pTotal, pTotal, dt)
		}
		if upsW < pTotal-1e-6 {
			r.outage = true
			env.Events.Logf("outage", "UPS exhausted with the breaker open; rack dark")
		}
	}

	if !r.outage {
		env.Rack.AdvanceBatch(dt, now)
	} else {
		res.OutageS += dt
		r.em.outageS.Add(dt)
	}

	r.lastCBW = cbW
	fi, fb := 0.0, 0.0
	if !r.outage {
		fi = env.Rack.MeanInteractiveFreqNorm()
		fb = env.Rack.MeanBatchFreqNorm()
	}
	recordTick(res, r.reporter, now, pTotal, cbW, upsW, fi, fb, env, r.step%r.stride == 0)
	if r.em.enabled {
		r.em.observeTick(now, pTotal, cbW, upsW, env)
		r.em.tickSeconds.Observe(time.Since(tickStart).Seconds())
	}
	r.status(now, pTotal, cbW, upsW, false)

	// CB budget tracking quality (dead-controller ticks are not
	// "controlled": nothing was tracking the budget).
	if r.reporter != nil && !ctlDead {
		pcb, _ := r.reporter.Targets(now)
		if !math.IsInf(pcb, 1) && !math.IsNaN(pcb) && !r.outage {
			r.controlledTicks++
			r.trackErrSum += math.Abs(cbW - pcb)
			if cbW > pcb*1.01 {
				r.overTicks++
			}
		}
	}

	r.snap = nextSnapshot(now+dt, dt, measured, cbW, upsW, env, r.outage)
	if inj != nil {
		r.snap.UPSSoC, r.snap.UPSDepleted = inj.FilterSoC(r.snap.UPSSoC, r.snap.UPSDepleted)
	}
	if ckr != nil {
		ckr.capture(r, now+dt, r.step+1)
	}
	r.step++
	return nil
}

// Finish finalizes the result after the last tick (summary statistics,
// telemetry snapshot, final status). Idempotent: further calls return the
// same Result.
func (r *Runner) Finish() *Result {
	if r.finished {
		return r.res
	}
	r.finished = true
	finalize(r.res, r.env, r.controlledTicks, r.overTicks, r.trackErrSum)
	r.status(r.scn.DurationS, r.snap.MeasuredTotalW, r.snap.CBPowerW, r.snap.UPSPowerW, true)
	r.res.Telemetry = r.opts.Metrics.Snapshot()
	return r.res
}

// Package sim is the discrete-time simulation engine of the evaluation
// (paper Section VI-A): it assembles the 16-server rack, circuit breaker,
// UPS and workload traces, advances the physics each tick, applies a
// sprinting policy's actuation, and collects the metrics every figure of
// the paper is built from (power curves, frequency curves, DoD, trips,
// outage time, deadline compliance).
package sim

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/breaker"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/obs"
	"sprintcon/internal/rack"
	"sprintcon/internal/telemetry"
	"sprintcon/internal/ups"
	"sprintcon/internal/workload"
)

// Env bundles the physical system a policy senses and actuates.
type Env struct {
	Rack    *rack.Rack
	Breaker *breaker.Breaker
	UPS     *ups.UPS
	Trace   *workload.InteractiveTrace
	// Events is the run's structured event log; policies may append
	// through Logf (mode changes, budget moves), and the engine records
	// trips, recloses and outage boundaries.
	Events *EventLog
	// Metrics is the run's telemetry registry. It is nil unless the run
	// was started through RunWith with RunOptions.Metrics — all
	// instruments obtained from a nil registry are nil and no-op, so
	// policies instrument unconditionally.
	Metrics *telemetry.Registry
	// Decisions is the per-control-period decision-trace sink (JSONL).
	// Nil unless enabled through RunOptions; telemetry.DecisionSink is
	// nil-safe, so policies emit unconditionally.
	Decisions *telemetry.DecisionSink
	// Obs is the rack's causal observability plane (spans, health
	// rollups, anomaly detectors). Nil unless enabled through
	// RunOptions.Obs; obs.Plane is nil-safe, so policies observe
	// unconditionally.
	Obs *obs.Plane
}

// Snapshot is the measurement set a policy sees at the start of a tick.
// All power values are from the previous tick (sensors report history, not
// the future).
type Snapshot struct {
	Now float64
	Dt  float64
	// MeasuredTotalW is the rack power monitor's (noisy) last reading.
	MeasuredTotalW float64
	// CBPowerW is the power the breaker conducted last tick.
	CBPowerW float64
	// UPSPowerW is the battery power delivered last tick.
	UPSPowerW float64
	// CBThermalFraction, CBNearTrip and CBTripped report breaker state.
	CBThermalFraction float64
	CBNearTrip        bool
	CBTripped         bool
	// UPSSoC and UPSDepleted report battery state.
	UPSSoC      float64
	UPSDepleted bool
	// Outage reports that the rack lost power entirely last tick.
	Outage bool
}

// Policy is a sprinting power-management strategy. Implementations actuate
// the rack (frequencies) inside Tick and return the UPS discharge request
// for the coming tick.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Start binds the policy to a fresh environment at sprint begin.
	Start(env *Env, scn Scenario) error
	// Tick runs one control step and returns the requested UPS
	// discharge power for this tick (0 for none).
	Tick(env *Env, s Snapshot) (upsRequestW float64)
}

// TargetReporter is optionally implemented by policies that maintain
// explicit power targets; the engine records them into the result series
// (needed for the paper's Fig. 6 "CB budget power" curve).
type TargetReporter interface {
	Targets(now float64) (pcbW, pbatchW float64)
}

// Scenario configures one simulation run.
type Scenario struct {
	// DurationS is the simulated time; DtS the physics step.
	DurationS float64
	DtS       float64
	// BurstDurationS is the announced workload-burst duration the policy
	// plans for (paper: T_burst).
	BurstDurationS float64
	// BatchDeadlineS is the absolute deadline for every batch job
	// (paper Fig. 8: 9, 12, 15 minutes).
	BatchDeadlineS float64
	// WorkFillMin/Max size each job's work as a fraction of
	// WorkReferenceS: a fill of 0.58 with the reference equal to the
	// deadline needs average rate 0.58 to finish exactly on time.
	WorkFillMin, WorkFillMax float64
	// WorkReferenceS anchors job sizes so that sweeping the deadline
	// (paper Fig. 8: 9/12/15 min) varies urgency over the *same* work
	// rather than resizing the jobs.
	WorkReferenceS float64
	// AmbientBaseC and AmbientSwingC drive the fan disturbance.
	AmbientBaseC, AmbientSwingC float64
	// Rack, breaker, UPS and interactive-trace configurations.
	Rack        rack.Config
	Breaker     breaker.Config
	UPS         ups.Config
	Interactive workload.InteractiveConfig
	// Trace, when non-nil, replaces the generated interactive trace —
	// e.g. a production trace loaded with workload.TraceFromCSV.
	Trace *workload.InteractiveTrace
	// Faults is the run's fault-injection schedule (empty = no faults).
	Faults faults.Plan
	// BatchSpecs, when non-empty, replaces the default SpecCPU2006 batch
	// mix; jobs are assigned round-robin exactly as with the default set.
	// Steady-state benchmark scenarios use a single-phase mix here so
	// that re-executing jobs hold constant utilization (multi-phase specs
	// re-walk their phases forever, which genuinely perturbs the plant
	// and caps the event engine's quiescent spans).
	BatchSpecs []workload.BatchSpec
}

// DefaultScenario returns the paper's evaluation setup: a 15-minute sprint
// on the 16-server rack with 12-minute batch deadlines.
func DefaultScenario() Scenario {
	return Scenario{
		DurationS:      900,
		DtS:            1,
		BurstDurationS: 900,
		BatchDeadlineS: 720,
		WorkFillMin:    0.34,
		WorkFillMax:    0.45,
		WorkReferenceS: 720,
		AmbientBaseC:   25,
		AmbientSwingC:  3,
		Rack:           rack.DefaultConfig(),
		Breaker:        breaker.DefaultConfig(),
		UPS:            ups.DefaultConfig(),
		Interactive:    workload.DefaultInteractiveConfig(),
	}
}

// Validate reports structural errors in the scenario. Beyond the zero
// checks it rejects NaN/Inf in every numeric field: a single NaN duration
// or ambient swing silently corrupts an entire run's physics, so it must be
// caught at configuration time with a descriptive error.
func (s Scenario) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DurationS", s.DurationS},
		{"DtS", s.DtS},
		{"BurstDurationS", s.BurstDurationS},
		{"BatchDeadlineS", s.BatchDeadlineS},
		{"WorkFillMin", s.WorkFillMin},
		{"WorkFillMax", s.WorkFillMax},
		{"WorkReferenceS", s.WorkReferenceS},
		{"AmbientBaseC", s.AmbientBaseC},
		{"AmbientSwingC", s.AmbientSwingC},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s is %g; every scenario field must be finite", f.name, f.v)
		}
	}
	switch {
	case s.DurationS <= 0 || s.DtS <= 0:
		return errors.New("sim: duration and dt must be positive")
	case s.DtS > s.DurationS:
		return errors.New("sim: dt exceeds duration")
	case s.BurstDurationS <= 0:
		return errors.New("sim: burst duration must be positive")
	case s.BatchDeadlineS <= 0:
		return errors.New("sim: batch deadline must be positive")
	case s.WorkFillMin <= 0 || s.WorkFillMax < s.WorkFillMin || s.WorkFillMax > 1:
		return errors.New("sim: need 0 < WorkFillMin ≤ WorkFillMax ≤ 1")
	case s.WorkReferenceS <= 0:
		return errors.New("sim: WorkReferenceS must be positive")
	}
	if err := s.Rack.Validate(); err != nil {
		return err
	}
	if err := s.Breaker.Validate(); err != nil {
		return err
	}
	if err := s.UPS.Validate(); err != nil {
		return err
	}
	if err := s.Faults.ValidateForRack(s.Rack.NumServers); err != nil {
		return err
	}
	for _, sp := range s.BatchSpecs {
		if err := sp.Validate(); err != nil {
			return err
		}
	}
	return s.Interactive.Validate()
}

// Series holds the per-tick time series of one run.
type Series struct {
	DtS       float64
	Time      []float64
	TotalW    []float64 // rack power
	CBW       []float64 // breaker-conducted power
	UPSW      []float64 // battery-delivered power
	PCbW      []float64 // policy's CB budget (NaN if not reported)
	PBatchW   []float64 // policy's batch budget (NaN if not reported)
	FreqInter []float64 // mean normalized interactive frequency (0 in outage)
	FreqBatch []float64 // mean normalized batch frequency (0 in outage)
	SoC       []float64 // UPS state of charge
	Demand    []float64 // interactive demand fraction offered by the trace
}

// grow preallocates every channel for n ticks so the per-tick appends in
// recordTick never reallocate mid-run.
func (s *Series) grow(n int) {
	s.Time = make([]float64, 0, n)
	s.TotalW = make([]float64, 0, n)
	s.CBW = make([]float64, 0, n)
	s.UPSW = make([]float64, 0, n)
	s.PCbW = make([]float64, 0, n)
	s.PBatchW = make([]float64, 0, n)
	s.FreqInter = make([]float64, 0, n)
	s.FreqBatch = make([]float64, 0, n)
	s.SoC = make([]float64, 0, n)
	s.Demand = make([]float64, 0, n)
}

// Result aggregates one run.
type Result struct {
	Policy   string
	Scenario Scenario
	Series   Series

	// AvgFreqInter/Batch are the time-averaged normalized frequencies
	// (the paper's Fig. 5/7 headline numbers); outage ticks count as 0.
	AvgFreqInter float64
	AvgFreqBatch float64

	CBTrips int
	OutageS float64

	UPSDoD          float64
	UPSDischargedWh float64

	JobsTotal          int
	JobsCompletedOnce  int
	DeadlineMisses     int
	MaxCompletionTimeS float64 // latest first completion (+Inf if any job never finished)
	Jobs               []JobResult

	// CB budget tracking quality (only meaningful for TargetReporters):
	// fraction of ticks the conducted power exceeded the budget by >1 %,
	// and the mean absolute tracking error in watts while controlled.
	CBOverBudgetFrac  float64
	CBTrackingErrorW  float64
	EnergyCBWh        float64 // total energy through the breaker
	EnergyCBOverWh    float64 // breaker energy above its rating
	EnergyTotalWh     float64 // total rack energy
	BatchWorkDoneS    float64 // total batch work executed, in peak-seconds
	InteractiveDemand workload.Stats
	// Events is the run's structured event log, time-ordered.
	Events []Event
	// Telemetry is the final registry snapshot of an instrumented run
	// (nil when the run had no registry) — the experiments harness
	// aggregates these into its reports.
	Telemetry telemetry.Snapshot
	// Engine reports how much plant work the discrete-event core elided.
	Engine EngineStats

	// Summary accumulators, maintained per tick by recordTick in the same
	// per-tick operation order the series-walking finalize loop used, so
	// summary statistics stay bit-identical at any series stride.
	nTicks       int
	sumFreqInter float64
	sumFreqBatch float64
}

// EngineStats describes the discrete-event core's work for one run.
type EngineStats struct {
	// Spans is the number of quiescent spans closed analytically;
	// TicksSkipped is the number of plant ticks those spans covered (both
	// 0 for runs driven tick by tick through Runner.Step).
	Spans        int
	TicksSkipped int
	// Events is the number of discrete events (barriers) dequeued while
	// planning spans.
	Events int
}

// JobResult summarizes one batch job's outcome.
type JobResult struct {
	Name        string  // benchmark name
	Core        string  // core reference, e.g. "s3/c5"
	CompletionS float64 // first completion time (NaN if never)
	Progress    float64 // progress of the current execution at sim end
	Missed      bool    // missed its deadline
}

// NormalizedTimeUse returns the paper's Fig. 8(a) metric: the latest batch
// first-completion time over the deadline (>1 means a miss; +Inf if some
// job never completed).
func (r *Result) NormalizedTimeUse() float64 {
	return r.MaxCompletionTimeS / r.Scenario.BatchDeadlineS
}

// RunOptions attaches observability to a run. The zero value disables all
// telemetry, which keeps the tick loop on the exact legacy hot path (one
// nil check per tick).
type RunOptions struct {
	// Metrics, when non-nil, is installed as Env.Metrics: the engine and
	// the policy register and update instruments there, and the final
	// snapshot lands in Result.Telemetry. Use one registry per run
	// (RunMany jobs run concurrently and would interleave samples).
	Metrics *telemetry.Registry
	// Decisions, when non-nil, is installed as Env.Decisions and receives
	// one structured JSONL record per policy control period.
	Decisions *telemetry.DecisionSink
	// Obs, when non-nil, is installed as Env.Obs: the policy emits
	// control-period spans, health rollups and anomaly alerts there.
	Obs *obs.Plane
	// Status, when non-nil, is refreshed every tick with the live run
	// state, for the /status endpoint of a metrics server.
	Status *telemetry.RunStatus
	// Checkpoint, when non-nil, serializes the run's control state into
	// its Store on the configured cadence, and controller restarts (the
	// controller-crash fault) restore from the latest usable snapshot.
	Checkpoint *CheckpointOptions
	// Resume, when non-nil, restores the whole run — plant, engine
	// accumulators, controller — from the snapshot and continues from its
	// step instead of starting at t=0. The Result then covers only the
	// resumed window.
	Resume *checkpoint.Snapshot
	// SeriesStride records every SeriesStride-th tick into Result.Series
	// (0 or 1 records every tick). Summary statistics are unaffected:
	// they accumulate per tick regardless of the stride. Long diurnal
	// runs use a stride to keep Series memory bounded.
	SeriesStride int
	// DropEvents discards event-log appends: Result.Events comes back
	// empty. Control behavior is unaffected — nothing reads the log
	// mid-run — so results stay bit-identical to a logging run. Benchmarks
	// use it to measure the engine's steady-state allocation cost without
	// counting diagnostic log volume (each entry must box its format
	// arguments and build a fresh string).
	DropEvents bool
	// Stop, when non-nil, is polled before every tick and every quiescent
	// span: once it closes, RunWith abandons the run and returns
	// ErrCanceled. The check sits outside Runner.Step, so lock-step
	// loops that call Step directly (hier.RunLinked) implement their
	// own cancellation and the per-tick hot path is unchanged for runs
	// that never cancel.
	Stop <-chan struct{}
}

// ErrCanceled is returned by run loops abandoned through RunOptions.Stop
// (or a lock-step driver's stop channel). Callers distinguish it from real
// failures with errors.Is.
var ErrCanceled = errors.New("sim: run canceled")

// stopped reports whether the stop channel (if any) has closed.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Run simulates the scenario under the policy with telemetry disabled.
func Run(scn Scenario, p Policy) (*Result, error) {
	return RunWith(scn, p, RunOptions{})
}

// engineMetrics holds the engine's own instruments, resolved once before
// the tick loop so the hot path performs no registry lookups. The zero
// value (all nil instruments) is the disabled state.
type engineMetrics struct {
	enabled     bool
	ticks       *telemetry.Counter
	trips       *telemetry.Counter
	outageS     *telemetry.Counter
	totalW      *telemetry.Gauge
	cbW         *telemetry.Gauge
	upsW        *telemetry.Gauge
	soc         *telemetry.Gauge
	thermMargin *telemetry.Gauge
	demand      *telemetry.Gauge
	nowS        *telemetry.Gauge
	tickSeconds *telemetry.Histogram
}

func newEngineMetrics(r *telemetry.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		enabled: true,
		ticks:   r.Counter("sim_ticks_total", "simulation ticks executed"),
		trips:   r.Counter("cb_trips_total", "circuit breaker trips"),
		outageS: r.Counter("outage_seconds_total", "simulated seconds with the rack dark"),
		totalW:  r.Gauge("rack_power_w", "true rack power this tick"),
		cbW:     r.Gauge("cb_power_w", "breaker-conducted power this tick"),
		upsW:    r.Gauge("ups_power_w", "battery-delivered power this tick"),
		soc:     r.Gauge("ups_soc", "UPS state of charge"),
		thermMargin: r.Gauge("cb_thermal_margin",
			"remaining fraction of the breaker trip budget (1 − thermal fraction)"),
		demand: r.Gauge("interactive_demand_frac", "interactive demand fraction offered by the trace"),
		nowS:   r.Gauge("sim_now_seconds", "current simulation time"),
		tickSeconds: r.Histogram("engine_tick_seconds",
			"wall-clock time per engine tick (excluded from golden comparisons)",
			telemetry.DefTimeBuckets()),
	}
}

// observeTick records one tick's plant state (no-op when disabled).
func (em *engineMetrics) observeTick(now, pTotal, cbW, upsW float64, env *Env) {
	em.ticks.Inc()
	em.nowS.Set(now)
	em.totalW.Set(pTotal)
	em.cbW.Set(cbW)
	em.upsW.Set(upsW)
	em.soc.Set(env.UPS.SoC())
	em.thermMargin.Set(1 - env.Breaker.ThermalFraction())
	em.demand.Set(env.Trace.At(now))
}

// RunWith simulates the scenario under the policy with the given
// observability options. It is the convenience loop over a Runner: every
// tick runs through Runner.Step, except provably quiescent spans, which the
// discrete-event core closes analytically with bit-identical results
// (event.go). Callers that need to interleave work between ticks (the
// cluster's lock-step control link) drive the Runner directly and get
// bit-identical results.
func RunWith(scn Scenario, p Policy, opts RunOptions) (*Result, error) {
	r, err := NewRunner(scn, p, opts)
	if err != nil {
		return nil, err
	}
	r.startEventCore()
	for !r.Done() {
		if stopped(opts.Stop) {
			return nil, ErrCanceled
		}
		if r.ev != nil && r.spanReady() {
			if n := r.planSpan(); n >= minSpanTicks {
				r.fastForward(n)
				r.probeQuiescence()
				continue
			}
		}
		if err := r.Step(); err != nil {
			return nil, err
		}
		if r.ev != nil {
			r.probeQuiescence()
		}
	}
	return r.Finish(), nil
}

// BuildEnv assembles the rack, breaker, UPS, interactive trace and batch
// jobs of a scenario. Exported for policies' unit tests.
func BuildEnv(scn Scenario) (*Env, error) {
	r, err := rack.New(scn.Rack)
	if err != nil {
		return nil, err
	}
	b, err := breaker.New(scn.Breaker)
	if err != nil {
		return nil, err
	}
	u, err := ups.New(scn.UPS)
	if err != nil {
		return nil, err
	}
	tr := scn.Trace
	if tr == nil {
		var err error
		tr, err = workload.GenInteractive(scn.Interactive, scn.DurationS, scn.DtS)
		if err != nil {
			return nil, err
		}
	}
	specs := scn.BatchSpecs
	if len(specs) == 0 {
		specs = workload.SpecCPU2006()
	}
	for i, ref := range r.BatchCores() {
		spec := specs[i%len(specs)]
		j, err := workload.NewBatchJob(spec, 0, scn.BatchDeadlineS)
		if err != nil {
			return nil, err
		}
		// Deterministic per-core fill in [WorkFillMin, WorkFillMax]
		// via the golden-ratio low-discrepancy sequence.
		frac := math.Mod(float64(i)*0.6180339887498949, 1)
		fill := scn.WorkFillMin + (scn.WorkFillMax-scn.WorkFillMin)*frac
		j.ScaleWork(fill * scn.WorkReferenceS / spec.PeakSeconds)
		if err := r.BindJob(ref, j); err != nil {
			return nil, err
		}
	}
	return &Env{Rack: r, Breaker: b, UPS: u, Trace: tr, Events: NewEventLog()}, nil
}

func nextSnapshot(now, dt, measured, cbW, upsW float64, env *Env, outage bool) Snapshot {
	return Snapshot{
		Now:               now,
		Dt:                dt,
		MeasuredTotalW:    measured,
		CBPowerW:          cbW,
		UPSPowerW:         upsW,
		CBThermalFraction: env.Breaker.ThermalFraction(),
		CBNearTrip:        env.Breaker.NearTrip(),
		CBTripped:         env.Breaker.Tripped(),
		UPSSoC:            env.UPS.SoC(),
		UPSDepleted:       env.UPS.Depleted(),
		Outage:            outage,
	}
}

// recordTick accumulates one tick into the result's summary statistics and,
// when keep is set, appends the tick to the series. The accumulator updates
// run in the same per-tick operation order the old series-walking finalize
// loop used, so summaries are bit-identical at any series stride.
func recordTick(res *Result, reporter TargetReporter, now, pTotal, cbW, upsW float64, env *Env, outage, keep bool) {
	fi, fb := 0.0, 0.0
	if !outage {
		fi = env.Rack.MeanInteractiveFreqNorm()
		fb = env.Rack.MeanBatchFreqNorm()
	}

	s := &res.Series
	res.nTicks++
	res.sumFreqInter += fi
	res.sumFreqBatch += fb
	res.EnergyTotalWh += pTotal * s.DtS / 3600
	res.EnergyCBWh += cbW * s.DtS / 3600
	if ov := cbW - env.Breaker.RatedPower(); ov > 0 {
		res.EnergyCBOverWh += ov * s.DtS / 3600
	}
	if !keep {
		return
	}

	s.Time = append(s.Time, now)
	s.TotalW = append(s.TotalW, pTotal)
	s.Demand = append(s.Demand, env.Trace.At(now))
	s.CBW = append(s.CBW, cbW)
	s.UPSW = append(s.UPSW, upsW)
	s.SoC = append(s.SoC, env.UPS.SoC())

	pcb, pbatch := math.NaN(), math.NaN()
	if reporter != nil {
		pcb, pbatch = reporter.Targets(now)
	}
	s.PCbW = append(s.PCbW, pcb)
	s.PBatchW = append(s.PBatchW, pbatch)

	s.FreqInter = append(s.FreqInter, fi)
	s.FreqBatch = append(s.FreqBatch, fb)
}

func finalize(res *Result, env *Env, controlled, over int, trackErrSum float64) {
	n := float64(res.nTicks)
	if n == 0 {
		return
	}
	res.AvgFreqInter = res.sumFreqInter / n
	res.AvgFreqBatch = res.sumFreqBatch / n

	res.UPSDoD = env.UPS.DoD()
	res.UPSDischargedWh = env.UPS.DischargedWh()

	end := res.Scenario.DurationS
	latest := 0.0
	for _, ref := range env.Rack.BatchCores() {
		j := env.Rack.Job(ref)
		if j == nil {
			continue
		}
		res.JobsTotal++
		if j.Completed() {
			res.JobsCompletedOnce++
			latest = math.Max(latest, j.CompletionTime())
		} else {
			latest = math.Inf(1)
		}
		missed := j.MissedDeadline(end)
		if missed {
			res.DeadlineMisses++
		}
		res.BatchWorkDoneS += j.WorkDone()
		res.Jobs = append(res.Jobs, JobResult{
			Name:        j.Spec.Name,
			Core:        ref.String(),
			CompletionS: j.CompletionTime(),
			Progress:    j.Progress(),
			Missed:      missed,
		})
	}
	res.MaxCompletionTimeS = latest

	if controlled > 0 {
		res.CBOverBudgetFrac = float64(over) / float64(controlled)
		res.CBTrackingErrorW = trackErrSum / float64(controlled)
	}
	res.Events = env.Events.Events()
}

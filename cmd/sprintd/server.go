package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// maxRows bounds the accepted topology size: a spec asking for more rows
// than this (uniform or explicit) is rejected before any allocation work.
const maxRows = 1024

// RunSpec is the JSON body of POST /api/v1/runs. Every field is optional;
// the zero spec runs the acceptance topology (four linked rows of sixteen
// paper racks, auto-provisioned budgets).
type RunSpec struct {
	// Mode selects the runtime: "linked" (default) drives every row
	// through the lease-based control link; "sweep" runs static
	// even-stagger phase offsets on the worker pool (capacity studies at
	// thousands of racks — no link, no decision streams).
	Mode string `json:"mode,omitempty"`
	// Rows and RacksPerRow describe a uniform topology (defaults 4×16).
	// RowConfigs overrides them with explicit per-row shapes.
	Rows        int       `json:"rows,omitempty"`
	RacksPerRow int       `json:"racks_per_row,omitempty"`
	RowConfigs  []RowSpec `json:"row_configs,omitempty"`
	// BuildingBudgetW caps the building feeder; zero auto-provisions at
	// the sum of the row ratings.
	BuildingBudgetW float64 `json:"building_budget_w,omitempty"`
	// DurationS overrides the scenario duration (seconds).
	DurationS float64 `json:"duration_s,omitempty"`
	// Seed offsets every rack's traffic/noise/fault seeds; LinkSeed
	// drives the per-row transports' fault randomness.
	Seed     int64 `json:"seed,omitempty"`
	LinkSeed int64 `json:"link_seed,omitempty"`
	// Serial runs the simulation on one worker, with rows interleaved
	// round by round and racks stepped in order (results are
	// bit-identical either way).
	Serial bool `json:"serial,omitempty"`
	// Scenario is a full per-rack scenario document (the sim scenario
	// JSON schema, as written by sprintsim -scenario-out); when absent
	// the paper's default scenario runs.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// ChaosPanicAtStep, when positive, deliberately panics inside the run
	// at that step (row 0's tick callback for linked runs, the first
	// row-done callback for sweeps). It is a fault-injection hook for the
	// service chaos harness: the supervisor must isolate the panic, fail
	// only this run, and keep serving.
	ChaosPanicAtStep int `json:"chaos_panic_at_step,omitempty"`
}

// RowSpec is one row of a RunSpec topology.
type RowSpec struct {
	// Racks is the row size.
	Racks int `json:"racks"`
	// RatingW is the row breaker rating (W); zero auto-provisions the
	// minimum packing.
	RatingW float64 `json:"rating_w,omitempty"`
	// Faults replaces the scenario's fault plan for this row only — e.g.
	// a link-partition that degrades just this subtree.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// config resolves the spec into a hier.Config (without service plumbing),
// rejecting structurally absurd shapes with a precise cause before any
// allocation or simulation work happens.
func (spec RunSpec) config() (hier.Config, error) {
	c := hier.Config{
		BuildingBudgetW: spec.BuildingBudgetW,
		Scenario:        sim.DefaultScenario(),
		SprintCon:       hier.DefaultConfig().SprintCon,
		Seed:            spec.LinkSeed,
		Serial:          spec.Serial,
	}
	if spec.Rows < 0 {
		return c, fmt.Errorf("rows is %d; the row count must be non-negative", spec.Rows)
	}
	if spec.Rows > maxRows {
		return c, fmt.Errorf("rows is %d; at most %d rows are supported", spec.Rows, maxRows)
	}
	if spec.RacksPerRow < 0 {
		return c, fmt.Errorf("racks_per_row is %d; the per-row rack count must be non-negative", spec.RacksPerRow)
	}
	if len(spec.RowConfigs) > maxRows {
		return c, fmt.Errorf("row_configs lists %d rows; at most %d rows are supported", len(spec.RowConfigs), maxRows)
	}
	if spec.DurationS < 0 {
		return c, fmt.Errorf("duration_s is %g; the duration must be non-negative seconds", spec.DurationS)
	}
	if spec.ChaosPanicAtStep < 0 {
		return c, fmt.Errorf("chaos_panic_at_step is %d; the chaos step must be non-negative", spec.ChaosPanicAtStep)
	}
	if len(spec.Scenario) > 0 {
		scn, err := sim.ScenarioFromJSON(bytes.NewReader(spec.Scenario))
		if err != nil {
			return c, fmt.Errorf("scenario: %w", err)
		}
		c.Scenario = scn
	}
	if spec.DurationS > 0 {
		c.Scenario.DurationS = spec.DurationS
	}
	c.Scenario.Interactive.Seed += spec.Seed
	c.Scenario.Rack.Seed += spec.Seed
	c.Scenario.Faults.Seed += spec.Seed
	switch {
	case len(spec.RowConfigs) > 0:
		for _, r := range spec.RowConfigs {
			c.Rows = append(c.Rows, hier.RowConfig{Racks: r.Racks, RatingW: r.RatingW, Faults: r.Faults})
		}
	default:
		rows, per := spec.Rows, spec.RacksPerRow
		if rows == 0 {
			rows = 4
		}
		if per == 0 {
			per = 16
		}
		for i := 0; i < rows; i++ {
			c.Rows = append(c.Rows, hier.RowConfig{Racks: per})
		}
	}
	return c, nil
}

// Run states. A run is admitted as "queued", promoted to "running" by the
// dispatcher, and ends in exactly one terminal state: "done", "failed",
// "canceled" (DELETE) or "interrupted" (drain/restart — resumable from the
// journal).
const (
	stateQueued      = "queued"
	stateRunning     = "running"
	stateDone        = "done"
	stateFailed      = "failed"
	stateCanceled    = "canceled"
	stateInterrupted = "interrupted"
)

func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateCanceled
}

// run is one submitted scenario and its lifecycle.
type run struct {
	ID        string
	Mode      string
	Spec      RunSpec
	Submitted time.Time

	// cfg and resume are what the run needs to execute; finish drops both.
	cfg hier.Config

	// stop closes (once) to cancel the run; the target state — canceled
	// for DELETE, interrupted for a drain — is set before the close, and
	// read only by the supervisor once the run has seen the close.
	stop       chan struct{}
	stopOnce   sync.Once
	stopTarget string

	// resume holds journaled row snapshots for a recovered run.
	resume [][]*checkpoint.Snapshot

	// jmu serializes the run's journal writes: journalRun and landRun
	// hold it from taking their copy of the record until the copy is on
	// disk, so a copy taken later always lands later.
	jmu sync.Mutex

	mu         sync.Mutex
	state      string
	errMsg     string
	Started    time.Time
	finished   time.Time
	stepsTotal int
	// firstTimed: sprintd_first_decision_seconds has observed this run,
	// or must not (a run recovered from the journal, whose submission
	// time would count the restart's downtime).
	firstTimed bool
	rowStep    []int
	rowAggW    []float64
	// streams, metrics and obs are what a linked run serves beyond its
	// summary: decision streams, the per-run registry and the
	// observability planes. Eviction (or a restart) drops all three.
	streams map[[2]int]*telemetry.DecisionLog
	metrics *telemetry.Registry
	obs     []*obs.Cluster
	evicted bool
	// doc is the run's summary document, rendered once by finish or read
	// back from the journal. Once set it is all GET /api/v1/runs/{id}
	// serves.
	doc json.RawMessage
}

func (r *run) getState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// tryStart promotes a queued run to running; false if it was canceled (or
// otherwise moved) while waiting in the queue.
func (r *run) tryStart() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateQueued {
		return false
	}
	r.state = stateRunning
	r.Started = time.Now()
	return true
}

// tryCancelQueued cancels a run that is still waiting in the queue.
func (r *run) tryCancelQueued() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateQueued {
		return false
	}
	r.land(r.terminalRecord(stateCanceled, "", nil))
	return true
}

// cancel requests cooperative cancellation of a running run; the run loops
// observe the closed channel within one tick and unwind with
// sim.ErrCanceled, after which the supervisor lands the run in target.
func (r *run) cancel(target string) {
	r.stopOnce.Do(func() {
		r.stopTarget = target
		close(r.stop)
	})
}

// terminalRecord returns, without changing the run, its record once it
// lands in state: the summary document, rendered once with result as its
// result section (nil when the run produced none), and the final progress
// counters. The finish time keeps no monotonic clock reading, so
// wall_seconds and the status elapsed_seconds are the same wall-clock
// difference before and after a restart. Caller holds r.mu.
func (r *run) terminalRecord(state, errMsg string, result map[string]any) journalRecord {
	rec := r.record()
	rec.State, rec.Error, rec.Finished = state, errMsg, time.Now().Round(0)
	rec.StepsTotal, rec.RowStep, rec.RowAggW = r.stepsTotal, r.rowStep, r.rowAggW
	doc := rec.envelope()
	if result != nil {
		doc["result"] = result
	}
	var err error
	if rec.Summary, err = json.Marshal(doc); err != nil {
		log.Printf("sprintd: run %s summary: %v", r.ID, err)
	}
	return rec
}

// land makes a terminal record the run's state, summary and progress, and
// drops what the run held only to execute. Caller holds r.mu, or is the
// run's only holder.
func (r *run) land(rec journalRecord) {
	r.state, r.errMsg, r.finished, r.doc = rec.State, rec.Error, rec.Finished, rec.Summary
	r.stepsTotal, r.rowStep, r.rowAggW = rec.StepsTotal, rec.RowStep, rec.RowAggW
	r.cfg, r.resume = hier.Config{}, nil
}

// closeStreams completes every decision stream so followers drain and
// disconnect. Idempotent.
func (r *run) closeStreams() {
	r.mu.Lock()
	streams := r.streams
	r.mu.Unlock()
	for _, st := range streams {
		st.Close()
	}
}

// stream returns the rack's decision stream, or false if the run never had
// one (sweep) / no longer has one (evicted, restarted).
func (r *run) stream(row, rack int) (*telemetry.DecisionLog, bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.streams[[2]int{row, rack}]
	return st, ok, r.evicted
}

// planes returns the run's observability planes and registry, and whether
// eviction or a restart dropped them.
func (r *run) planes() ([]*obs.Cluster, *telemetry.Registry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.obs, r.metrics, r.evicted
}

// gone answers 404 for what an evicted or journal-restored run no longer
// holds.
func gone(w http.ResponseWriter, r *run, what string) {
	httpError(w, http.StatusNotFound,
		"%s for run %s are gone (evicted by the retention cap, or not retained across a restart)", what, r.ID)
}

// execute drives the run to completion and returns its summary's result
// section.
func (r *run) execute() (map[string]any, error) {
	if r.Mode == "sweep" {
		res, err := hier.RunSweep(r.cfg)
		if err != nil {
			return nil, err
		}
		return sweepResult(res), nil
	}
	res, err := hier.RunLinked(r.cfg)
	if err != nil {
		return nil, err
	}
	return linkedResult(res), nil
}

// serverConfig tunes the service's admission, retention and durability.
type serverConfig struct {
	// MaxRuns bounds concurrently executing runs; QueueDepth bounds the
	// FIFO of admitted-but-waiting runs behind them. A submission beyond
	// both is rejected with 429 and a Retry-After of RetryAfterS seconds.
	MaxRuns     int
	QueueDepth  int
	RetryAfterS int
	// Retain bounds completed-run history: beyond this many terminal runs
	// with decision streams, the oldest runs' stream buffers are evicted
	// (their records and summaries stay queryable).
	Retain int
	// StreamMaxLines bounds each rack's decision stream, in records;
	// StreamWriteTimeout is the per-write deadline for stream clients —
	// a client that cannot accept a write for this long is disconnected.
	StreamMaxLines     int
	StreamWriteTimeout time.Duration
	// StateDir, when non-empty, enables the durable run journal;
	// CheckpointEveryS is the simulated-seconds cadence of the per-row
	// checkpoint snapshots linked runs persist there.
	StateDir         string
	CheckpointEveryS float64
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		MaxRuns:            4,
		QueueDepth:         16,
		RetryAfterS:        5,
		Retain:             32,
		StreamMaxLines:     1 << 16,
		StreamWriteTimeout: 30 * time.Second,
		CheckpointEveryS:   300,
	}
}

// server is the sprintd control plane: a registry of runs behind a mux,
// with bounded admission, supervised execution and an optional durable
// journal.
type server struct {
	cfg serverConfig
	jn  *journal

	smetrics  *telemetry.Registry
	mPanics   *telemetry.Counter
	mEvicted  *telemetry.Counter
	mRejected *telemetry.Counter
	mSkipped  *telemetry.Counter
	gRunning  *telemetry.Gauge
	gQueued   *telemetry.Gauge
	hFirst    *telemetry.Histogram

	wg sync.WaitGroup // one per supervised run

	mu       sync.Mutex
	runs     map[string]*run
	order    []string
	seq      int
	started  time.Time
	queue    []*run
	running  int
	draining bool
}

func newServer(cfg serverConfig) (*server, error) {
	s := &server{cfg: cfg, runs: map[string]*run{}, started: time.Now(), smetrics: telemetry.NewRegistry()}
	s.mPanics = s.smetrics.Counter("sprintd_panics_recovered_total", "panics recovered by the run supervisor")
	s.mEvicted = s.smetrics.Counter("sprintd_runs_evicted_total", "completed runs whose decision streams were evicted by the retention cap")
	s.mRejected = s.smetrics.Counter("sprintd_runs_rejected_total", "submissions rejected because the run queue was full")
	s.mSkipped = s.smetrics.Counter("sprintd_decision_records_skipped_total", "decision records /decisions readers missed because the stream's retention bound had dropped them")
	s.gRunning = s.smetrics.Gauge("sprintd_runs_running", "runs currently executing")
	s.gQueued = s.smetrics.Gauge("sprintd_runs_queued", "runs admitted and waiting for a slot")
	s.hFirst = s.smetrics.Histogram("sprintd_first_decision_seconds",
		"time from a linked run's submission to its first completed lock-step tick",
		[]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	if cfg.StateDir != "" {
		jn, err := newJournal(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.jn = jn
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
	return s, nil
}

// buildRun assembles a fresh run (state queued) from a validated spec:
// per-run registry, observability planes, bounded decision streams, live
// progress counters and the cancellation channel.
func (s *server) buildRun(spec RunSpec, mode string) (*run, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &run{
		Mode:      mode,
		Spec:      spec,
		Submitted: time.Now(),
		cfg:       cfg,
		metrics:   telemetry.NewRegistry(),
		state:     stateQueued,
		stop:      make(chan struct{}),
		rowStep:   make([]int, len(cfg.Rows)),
		rowAggW:   make([]float64, len(cfg.Rows)),
	}
	r.stepsTotal = int(cfg.Scenario.DurationS / cfg.Scenario.DtS)
	r.cfg.Metrics = r.metrics
	r.cfg.Stop = r.stop
	panicAt := spec.ChaosPanicAtStep
	r.cfg.OnRowTick = func(row, step int, _ float64, aggW float64) {
		if panicAt > 0 && row == 0 && step+1 == panicAt {
			panic(fmt.Sprintf("chaos: injected panic at step %d (chaos_panic_at_step)", panicAt))
		}
		r.mu.Lock()
		if !r.firstTimed {
			r.firstTimed = true
			s.hFirst.Observe(time.Since(r.Submitted).Seconds())
		}
		r.rowStep[row] = step + 1
		r.rowAggW[row] = aggW
		r.mu.Unlock()
	}
	if mode == "linked" {
		streams := map[[2]int]*telemetry.DecisionLog{}
		for row, rc := range cfg.Rows {
			r.obs = append(r.obs, obs.NewCluster(rc.Racks, obs.DefaultDetectorConfig()))
			for _, p := range r.obs[row].Racks {
				p.Bind(r.metrics, fmt.Sprintf("obs_row%d_rack%d_", row, p.Rack()))
			}
			for rack := 0; rack < rc.Racks; rack++ {
				streams[[2]int{row, rack}] = telemetry.NewDecisionLog(s.cfg.StreamMaxLines)
			}
		}
		r.streams = streams
		r.cfg.Obs = r.obs
		// Nothing the service serves reads a linked rack's per-tick
		// series (the summary comes from accumulators and the row
		// feeder's own aggregate), so a stride longer than the run keeps
		// only tick 0 instead of ten float64 channels per rack-tick. The
		// stream is looked up through r, not captured, so that eviction
		// (which drops r.streams) frees the records.
		noSeries := r.stepsTotal + 1
		r.cfg.RackOptions = func(row, rack int) sim.RunOptions {
			st, _, _ := r.stream(row, rack)
			return sim.RunOptions{Decisions: telemetry.NewDecisionLogSink(st), SeriesStride: noSeries}
		}
	} else {
		r.cfg.OnRowDone = func(row int) {
			if panicAt > 0 && row == 0 {
				panic("chaos: injected panic after row 0 (chaos_panic_at_step)")
			}
			r.mu.Lock()
			r.rowStep[row] = r.stepsTotal
			r.mu.Unlock()
		}
	}
	return r, nil
}

// attach wires the ID-dependent service plumbing: checkpoint persistence
// and resume snapshots. Must run after the run has its ID.
func (s *server) attach(r *run) {
	if s.jn != nil && r.Mode == "linked" && s.cfg.CheckpointEveryS > 0 {
		id := r.ID
		r.cfg.CheckpointEveryS = s.cfg.CheckpointEveryS
		r.cfg.OnRowCheckpoint = func(row int, snaps []*checkpoint.Snapshot) {
			if err := s.jn.saveRowCheckpoint(id, row, snaps); err != nil {
				log.Printf("sprintd: %v", err)
			}
		}
	}
	r.cfg.Resume = r.resume
}

// registerLocked adds the run to the registry; caller holds s.mu.
func (s *server) registerLocked(r *run) {
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
}

// recover replays the journal on startup: terminal runs come back as
// queryable records; queued, running and interrupted runs are re-admitted
// and — for linked runs with row checkpoints — resume from their latest
// coherent snapshots. A journaled spec that no longer validates lands the
// run in the fail-safe "failed" state instead of being dropped.
func (s *server) recover() error {
	recs, err := s.jn.load()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if n := runSeq(rec.ID); n > s.seq {
			s.seq = n
		}
		if rec.Mode == "" {
			rec.Mode = "linked"
		}
		if terminal(rec.State) {
			r := &run{
				ID: rec.ID, Mode: rec.Mode, Spec: rec.Spec,
				Submitted: rec.Submitted, Started: rec.Started, evicted: true,
			}
			r.land(rec)
			s.registerLocked(r)
			continue
		}
		r, err := s.buildRun(rec.Spec, rec.Mode)
		if err != nil {
			// Fail-safe: the journaled spec no longer builds a runnable
			// configuration; keep the record, mark it failed.
			r = &run{ID: rec.ID, Mode: rec.Mode, Spec: rec.Spec, Submitted: rec.Submitted, evicted: true}
			s.landRun(r, stateFailed, "recovery: "+err.Error(), nil)
			s.registerLocked(r)
			continue
		}
		r.ID = rec.ID
		r.Submitted = rec.Submitted
		r.firstTimed = true
		if r.Mode == "linked" {
			r.resume = s.jn.loadResume(rec.ID, len(r.cfg.Rows))
		}
		s.attach(r)
		s.registerLocked(r)
		s.queue = append(s.queue, r)
		s.journalRun(r)
	}
	return nil
}

// journalRun persists the run's current lifecycle record (no-op without a
// state dir). Terminal records carry the full summary and the final
// progress counters, so a restarted service can serve results it did not
// compute. The copy and its write happen under the run's journal lock, so
// a copy taken before another cannot overwrite it: the running copy
// submission takes never replaces the supervisor's terminal record.
func (s *server) journalRun(r *run) {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	r.mu.Lock()
	rec := r.record()
	r.mu.Unlock()
	s.save(rec)
}

// landRun lands the run in its terminal state once the terminal record is
// on disk, so no handler sees a run finished whose record a kill -9 could
// still lose (a restart would run it again).
func (s *server) landRun(r *run, state, errMsg string, result map[string]any) {
	r.jmu.Lock()
	defer r.jmu.Unlock()
	r.mu.Lock()
	rec := r.terminalRecord(state, errMsg, result)
	r.mu.Unlock()
	s.save(rec)
	r.mu.Lock()
	r.land(rec)
	r.mu.Unlock()
}

// save writes a run's record to the journal, if there is one.
func (s *server) save(rec journalRecord) {
	if s.jn == nil {
		return
	}
	if err := s.jn.saveRecord(rec); err != nil {
		log.Printf("sprintd: %v", err)
	}
}

// record returns the run's current lifecycle record; caller holds r.mu.
func (r *run) record() journalRecord {
	rec := journalRecord{
		ID: r.ID, Mode: r.Mode, State: r.state,
		Submitted: r.Submitted, Started: r.Started, Finished: r.finished,
		Error: r.errMsg, Spec: r.Spec,
	}
	if terminal(r.state) {
		rec.Summary = r.doc
		rec.StepsTotal, rec.RowStep, rec.RowAggW = r.stepsTotal, r.rowStep, r.rowAggW
	}
	return rec
}

// dispatchLocked starts queued runs while slots are free; caller holds
// s.mu.
func (s *server) dispatchLocked() {
	for s.running < s.cfg.MaxRuns && len(s.queue) > 0 {
		r := s.queue[0]
		s.queue = s.queue[1:]
		if !r.tryStart() {
			continue // canceled while queued
		}
		s.running++
		s.wg.Add(1)
		go s.supervise(r)
	}
	s.gRunning.Set(float64(s.running))
	s.gQueued.Set(float64(len(s.queue)))
}

// supervise executes one run with panic isolation and owns its terminal
// transition, journal record, stream closure and the follow-on dispatch.
func (s *server) supervise(r *run) {
	defer s.wg.Done()
	// A run that neither returns nor is canceled has failed.
	state, errMsg := stateFailed, ""
	var result map[string]any
	defer func() {
		if p := recover(); p != nil {
			// A panic that escaped the run fan-out's own isolation (e.g.
			// from a sweep callback on this goroutine).
			errMsg = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
			s.mPanics.Inc()
		}
		s.landRun(r, state, errMsg, result)
		r.closeStreams()
		s.mu.Lock()
		s.running--
		s.dispatchLocked()
		s.mu.Unlock()
		s.maybeEvict()
	}()
	s.journalRun(r)
	var err error
	result, err = r.execute()
	switch {
	case err == nil:
		state = stateDone
	case errors.Is(err, sim.ErrCanceled):
		state = r.stopTarget
	default:
		errMsg = err.Error()
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			s.mPanics.Inc()
		}
	}
}

// maybeEvict enforces the completed-run retention cap: beyond Retain
// terminal runs holding decision streams, the oldest lose their stream
// buffers, observability planes and per-run registry (records and
// summaries stay).
func (s *server) maybeEvict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var held []*run
	for _, id := range s.order {
		r := s.runs[id]
		r.mu.Lock()
		if terminal(r.state) && !r.evicted && r.streams != nil {
			held = append(held, r)
		}
		r.mu.Unlock()
	}
	for len(held) > s.cfg.Retain {
		r := held[0]
		held = held[1:]
		r.mu.Lock()
		r.streams, r.metrics, r.obs = nil, nil, nil
		r.evicted = true
		r.mu.Unlock()
		s.mEvicted.Inc()
	}
}

// drain stops admitting, gives in-flight runs a grace period to finish,
// then cancels the stragglers into the resumable "interrupted" state and
// waits for every supervisor to land. Queued runs stay journaled as
// "queued" and are re-admitted on the next start.
func (s *server) drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	s.mu.Lock()
	for _, id := range s.order {
		r := s.runs[id]
		if r.getState() == stateRunning {
			r.cancel(stateInterrupted)
		}
	}
	s.mu.Unlock()
	<-done
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/runs", s.handleList)
	mux.HandleFunc("GET /api/v1/runs/{id}", s.handleRun)
	mux.HandleFunc("DELETE /api/v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/runs/{id}/status", s.handleRunStatus)
	mux.HandleFunc("GET /api/v1/runs/{id}/decisions", s.handleDecisions)
	mux.HandleFunc("GET /api/v1/runs/{id}/spans", s.handleSpans)
	mux.HandleFunc("GET /api/v1/runs/{id}/metrics", s.handleRunMetrics)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /status/cluster", s.handleStatusCluster)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Explicit pprof wiring: this mux is deliberately not DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON writes doc indented by one space. A json.RawMessage doc is
// re-indented the same way, so a rendered document is served with the bytes
// its map would have given.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(doc)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit validates the spec, admits the run through the bounded
// queue (202), or rejects it: 400 for a bad spec, 429 with Retry-After
// when the queue is full, 503 while draining.
func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decode spec: %v", err)
		return
	}
	mode := spec.Mode
	if mode == "" {
		mode = "linked"
	}
	if mode != "linked" && mode != "sweep" {
		httpError(w, http.StatusBadRequest, "mode %q: want \"linked\" or \"sweep\"", mode)
		return
	}
	r, err := s.buildRun(spec, mode)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new runs")
		return
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		queued, running := len(s.queue), s.running
		s.mu.Unlock()
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
		httpError(w, http.StatusTooManyRequests,
			"run queue full (%d running, %d queued); retry later", running, queued)
		return
	}
	s.seq++
	r.ID = fmt.Sprintf("r%d", s.seq)
	s.attach(r)
	s.registerLocked(r)
	s.queue = append(s.queue, r)
	s.dispatchLocked()
	s.mu.Unlock()

	state := r.getState() // "running" if dispatched immediately, else "queued"
	s.journalRun(r)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.ID, "state": state, "mode": mode})
}

// handleCancel is DELETE /api/v1/runs/{id}: a queued run cancels
// immediately; a running run is asked to stop and lands in "canceled"
// within about one control period; a terminal run is a no-op.
func (s *server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	if r.tryCancelQueued() {
		r.closeStreams()
		s.journalRun(r)
		writeJSON(w, http.StatusOK, map[string]string{"id": r.ID, "state": stateCanceled})
		return
	}
	if r.getState() == stateRunning {
		r.cancel(stateCanceled)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": r.ID, "state": "canceling"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": r.ID, "state": r.getState()})
}

func (s *server) get(req *http.Request) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[req.PathValue("id")]
	return r, ok
}

// latest returns the most recently submitted run, preferring linked runs
// for the cluster-health endpoints (sweeps carry no planes).
func (s *server) latest(needObs bool) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		r := s.runs[s.order[i]]
		if oc, _, _ := r.planes(); !needObs || len(oc) > 0 {
			return r
		}
	}
	return nil
}

// summary is the state document of GET /api/v1/runs/{id}: the document
// finish rendered, or the live envelope of a queued or running run.
func (r *run) summary() json.RawMessage {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.doc != nil {
		return r.doc
	}
	b, _ := json.Marshal(r.record().envelope())
	return b
}

// envelope is the state document of the run rec records, without a
// result section.
func (rec journalRecord) envelope() map[string]any {
	doc := map[string]any{
		"id":        rec.ID,
		"mode":      rec.Mode,
		"state":     rec.State,
		"submitted": rec.Submitted,
		"spec":      rec.Spec,
	}
	if !rec.Started.IsZero() {
		doc["started"] = rec.Started
	}
	if rec.Error != "" {
		doc["error"] = rec.Error
	}
	if !rec.Finished.IsZero() {
		doc["finished"] = rec.Finished
		if !rec.Started.IsZero() {
			doc["wall_seconds"] = rec.Finished.Sub(rec.Started).Seconds()
		}
	}
	return doc
}

// linkedResult is the result section of a finished linked run's summary.
func linkedResult(res *hier.Result) map[string]any {
	rows := make([]map[string]any, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = map[string]any{
			"racks":             res.Alloc.Rows[i].Racks,
			"budget_w":          res.Alloc.Rows[i].BudgetW,
			"slot_capacity":     res.Alloc.Rows[i].SlotCapacity,
			"exceed_frac":       row.FeederExceedFrac,
			"shadow_trips":      row.FeederTrips,
			"degraded_seconds":  row.DegradedS(),
			"resyncs":           row.Resyncs(),
			"cb_trips":          row.CBTrips,
			"deadline_misses":   row.DeadlineMisses,
			"peak_aggregate_w":  row.PeakW,
			"mean_aggregate_w":  row.MeanW,
			"outage_seconds":    row.OutageS,
			"transport_dropped": row.Transport.GrantsLost + row.Transport.BeatsLost,
		}
	}
	return map[string]any{
		"building_budget_w":    res.Alloc.BuildingBudgetW,
		"building_granted_w":   res.Alloc.TotalGrantedW(),
		"building_peak_w":      res.BuildingPeakW,
		"building_mean_w":      res.BuildingMeanW,
		"building_exceed_frac": res.BuildingExceedFrac,
		"building_trips":       res.BuildingTrips,
		"degraded_seconds":     res.DegradedS(),
		"cb_trips":             res.CBTrips,
		"deadline_misses":      res.DeadlineMisses,
		"resume_step":          res.ResumeStep,
		"rows":                 rows,
	}
}

// sweepResult is the result section of a finished sweep run's summary.
func sweepResult(res *hier.SweepResult) map[string]any {
	rows := make([]map[string]any, len(res.Rows))
	for i := range res.Rows {
		rows[i] = map[string]any{
			"racks":         res.Alloc.Rows[i].Racks,
			"budget_w":      res.Alloc.Rows[i].BudgetW,
			"slot_capacity": res.Alloc.Rows[i].SlotCapacity,
			"exceed_frac":   res.RowExceedFrac[i],
			"shadow_trips":  res.RowTrips[i],
		}
	}
	return map[string]any{
		"building_budget_w":    res.Alloc.BuildingBudgetW,
		"building_granted_w":   res.Alloc.TotalGrantedW(),
		"building_peak_w":      res.BuildingPeakW,
		"building_mean_w":      res.BuildingMeanW,
		"building_exceed_frac": res.BuildingExceedFrac,
		"building_trips":       res.BuildingTrips,
		"cb_trips":             res.CBTrips,
		"deadline_misses":      res.DeadlineMisses,
		"rows":                 rows,
	}
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]map[string]any, 0, len(s.order))
	for _, id := range s.order {
		r := s.runs[id]
		r.mu.Lock()
		list = append(list, map[string]any{"id": r.ID, "mode": r.Mode, "state": r.state, "submitted": r.Submitted})
		r.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": list})
}

func (s *server) handleRun(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, r.summary())
}

// handleRunStatus is the live view: per-row step counters and last
// aggregate draws, usable while the run executes, and the seconds elapsed
// since the run started (until it finished, once it has).
func (s *server) handleRunStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	r.mu.Lock()
	rows := make([]map[string]any, len(r.rowStep))
	var building float64
	for i := range r.rowStep {
		rows[i] = map[string]any{
			"step":             r.rowStep[i],
			"steps_total":      r.stepsTotal,
			"last_aggregate_w": r.rowAggW[i],
		}
		building += r.rowAggW[i]
	}
	doc := map[string]any{
		"id":              r.ID,
		"state":           r.state,
		"mode":            r.Mode,
		"steps_total":     r.stepsTotal,
		"rows":            rows,
		"last_building_w": building,
	}
	if !r.Started.IsZero() {
		// A finished run's clock stopped when land set r.finished (or
		// the journal record did), the time its summary's wall_seconds
		// is taken from.
		end := r.finished
		if end.IsZero() {
			end = time.Now()
		}
		doc["elapsed_seconds"] = end.Sub(r.Started).Seconds()
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

func queryInt(req *http.Request, key string, def int) (int, error) {
	v := req.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// handleDecisions streams one rack's per-control-period decision trace
// (the telemetry JSONL schema) over chunked HTTP: everything recorded so
// far, then — unless ?follow=0 — each new record as the simulation emits
// it, until the run completes or the client disconnects. Records are
// rendered as they are served (writeDecisions). Every write
// carries a deadline: a client that stalls longer than the configured
// stream write timeout is disconnected rather than allowed to pin server
// memory.
func (s *server) handleDecisions(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	row, err := queryInt(req, "row", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "row: %v", err)
		return
	}
	rack, err := queryInt(req, "rack", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "rack: %v", err)
		return
	}
	st, ok, evicted := r.stream(row, rack)
	if !ok {
		if evicted {
			gone(w, r, "decision streams")
			return
		}
		httpError(w, http.StatusNotFound, "no decision stream for row %d rack %d (sweep runs stream none)", row, rack)
		return
	}
	follow := req.URL.Query().Get("follow") != "0"

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	idx := 0
	var buf []byte
	for {
		recs, n, closed, wake := st.Next(idx)
		// Next skips forward past records the retention bound dropped;
		// the gap before its first record is what this reader missed.
		if skipped := n - len(recs) - idx; skipped > 0 {
			s.mSkipped.Add(float64(skipped))
		}
		idx = n
		if len(recs) > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
			if buf, err = writeDecisions(w, buf, recs); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if closed || !follow {
			return
		}
		select {
		case <-wake:
		case <-req.Context().Done():
			return
		}
	}
}

// handleSpans serves one row's causal span trace as JSONL (readable with
// sprintsim -read-spans). Spans stream from the live planes, so a running
// row serves its spans so far.
func (s *server) handleSpans(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	row, err := queryInt(req, "row", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "row: %v", err)
		return
	}
	oc, _, evicted := r.planes()
	if evicted {
		gone(w, r, "span traces")
		return
	}
	if row < 0 || row >= len(oc) {
		httpError(w, http.StatusNotFound, "no span trace for row %d (sweep runs record none)", row)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = telemetry.WriteSpans(w, oc[row].Spans())
}

func (s *server) handleRunMetrics(w http.ResponseWriter, req *http.Request) {
	r, ok := s.get(req)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	_, m, evicted := r.planes()
	if evicted {
		gone(w, r, "metrics")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.WritePrometheus(w)
}

// handleMetrics serves the service-level registry (supervisor counters,
// admission gauges) followed by the latest run's registry.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.smetrics.WritePrometheus(w)
	if r := s.latest(false); r != nil {
		if _, m, _ := r.planes(); m != nil {
			_ = m.WritePrometheus(w)
		}
	}
}

// handleStatus is the service document: uptime, runs and the API surface.
func (s *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]map[string]any, 0, len(s.order))
	for _, id := range s.order {
		r := s.runs[id]
		r.mu.Lock()
		runs = append(runs, map[string]any{"id": r.ID, "mode": r.Mode, "state": r.state})
		r.mu.Unlock()
	}
	uptime := time.Since(s.started).Seconds()
	doc := map[string]any{
		"service":        "sprintd",
		"uptime_seconds": uptime,
		"draining":       s.draining,
		"running":        s.running,
		"queued":         len(s.queue),
		"max_runs":       s.cfg.MaxRuns,
		"queue_depth":    s.cfg.QueueDepth,
		"runs":           runs,
		"endpoints": []string{
			"POST /api/v1/runs", "GET /api/v1/runs", "GET /api/v1/runs/{id}",
			"DELETE /api/v1/runs/{id}",
			"GET /api/v1/runs/{id}/status", "GET /api/v1/runs/{id}/decisions?row=&rack=&follow=",
			"GET /api/v1/runs/{id}/spans?row=", "GET /api/v1/runs/{id}/metrics",
			"GET /status", "GET /status/cluster", "GET /metrics", "GET /healthz",
		},
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// handleStatusCluster merges the latest linked run's per-row health
// documents (rollups, alerts) — the hierarchy-wide view of PR-7's
// /status/cluster.
func (s *server) handleStatusCluster(w http.ResponseWriter, req *http.Request) {
	r := s.latest(true)
	if id := req.URL.Query().Get("run"); id != "" {
		s.mu.Lock()
		r = s.runs[id]
		s.mu.Unlock()
	}
	var planes []*obs.Cluster
	if r != nil {
		planes, _, _ = r.planes()
	}
	if len(planes) == 0 {
		httpError(w, http.StatusNotFound, "no linked runs with an observability plane yet")
		return
	}
	state := r.getState()
	rows := make([]any, len(planes))
	for i, oc := range planes {
		rows[i] = oc.Doc()
	}
	writeJSON(w, http.StatusOK, map[string]any{"run": r.ID, "state": state, "rows": rows})
}

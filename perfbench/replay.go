package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// checkpointEveryS is sprintd's default -checkpoint-every: the simulated
// cadence of row checkpoints when it runs with a state dir.
const checkpointEveryS = 300

// replayOut is one in-process replay of a run's spec: the reference
// result document, and for a traced replay the per-layer figures.
type replayOut struct {
	result any // JSON-normalised, as sprintd's summary "result"
	alerts any // JSON-normalised per-row obs alerts (linked runs)

	// Traced replays only.
	decisions00 int64              // records rack (0,0)'s sink received
	registry    telemetry.Snapshot // the run-level registry sprintd also keeps
	layer       map[string]float64 // per-layer metrics of this run
	self        map[string]float64 // layer self-times, seconds
	wallS       float64
}

// replayBare runs the spec in-process as sprintd does, with the
// observability planes sprintd attaches to linked runs but no other
// telemetry; results do not depend on telemetry, so this is the
// correctness reference for untraced runs.
func replayBare(spec runSpec) (*replayOut, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	planes := attachObs(&cfg, spec, nil)
	var doc map[string]any
	if spec.linked() {
		res, err := hier.RunLinked(cfg)
		if err != nil {
			return nil, err
		}
		doc = linkedDoc(res)
	} else {
		res, err := hier.RunSweep(cfg)
		if err != nil {
			return nil, err
		}
		doc = sweepDoc(res)
	}
	return finish(&replayOut{}, doc, planes)
}

// attachObs gives a linked run one observability plane per row, as sprintd
// does, with the rack rollups bound to reg under sprintd's prefixes when
// reg is non-nil. Sweeps get none.
func attachObs(cfg *hier.Config, spec runSpec, reg *telemetry.Registry) []*obs.Cluster {
	if !spec.linked() {
		return nil
	}
	var planes []*obs.Cluster
	for r, rc := range cfg.Rows {
		planes = append(planes, obs.NewCluster(rc.Racks, obs.DefaultDetectorConfig()))
		if reg != nil {
			for _, p := range planes[r].Racks {
				p.Bind(reg, fmt.Sprintf("obs_row%d_rack%d_", r, p.Rack()))
			}
		}
	}
	cfg.Obs = planes
	return planes
}

// finish stores the normalised result document and alerts in out.
func finish(out *replayOut, doc map[string]any, planes []*obs.Cluster) (*replayOut, error) {
	var err error
	if out.result, err = normalise(doc); err != nil {
		return nil, err
	}
	if planes != nil {
		alerts := make([]any, len(planes))
		for i, p := range planes {
			alerts[i] = p.Alerts()
		}
		if out.alerts, err = normalise(alerts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// countWriter counts the bytes a decision sink writes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// replayTraced replays the spec serially with every layer instrumented
// from outside: hier.Allocate is timed, OnRowTick and OnRowDone are
// timestamped, RackOptions attaches a per-rack registry and a
// byte-counting decision sink (and linked runs get the observability
// planes sprintd attaches), journaled workloads checkpoint on sprintd's
// cadence, and Result.Engine is read per rack. Serial execution is
// bit-identical to parallel and makes the layer self-times add up to the
// replay's wall time. Spans go to tr under runID.
func replayTraced(spec runSpec, journal bool, tr *tracer, runID string) (*replayOut, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	cfg.Serial = true
	runReg := telemetry.NewRegistry()
	cfg.Metrics = runReg
	nrows := len(cfg.Rows)
	steps := int(cfg.Scenario.DurationS / cfg.Scenario.DtS)

	regs := make([][]*telemetry.Registry, nrows)
	sinks := make([][]*telemetry.DecisionSink, nrows)
	counts := make([][]*countWriter, nrows)
	for r, rc := range cfg.Rows {
		regs[r] = make([]*telemetry.Registry, rc.Racks)
		sinks[r] = make([]*telemetry.DecisionSink, rc.Racks)
		counts[r] = make([]*countWriter, rc.Racks)
		for j := range regs[r] {
			regs[r][j] = telemetry.NewRegistry()
			counts[r][j] = &countWriter{}
			sinks[r][j] = telemetry.NewDecisionSink(counts[r][j])
		}
	}
	planes := attachObs(&cfg, spec, runReg)

	var (
		mu        sync.Mutex
		rowStart  = make([]time.Time, nrows) // first RackOptions call of the row
		ticks     = make([][]time.Time, nrows)
		rowDone   = make([]time.Time, nrows)
		ckptSaves int
		ckptBytes int64
		ckptTime  time.Duration
		ckptErr   error
	)
	for r := range ticks {
		ticks[r] = make([]time.Time, 0, steps)
	}
	cfg.RackOptions = func(row, rack int) sim.RunOptions {
		now := time.Now()
		mu.Lock()
		if rowStart[row].IsZero() {
			rowStart[row] = now
		}
		mu.Unlock()
		return sim.RunOptions{Metrics: regs[row][rack], Decisions: sinks[row][rack]}
	}
	cfg.OnRowTick = func(row, _ int, _, _ float64) {
		now := time.Now()
		mu.Lock()
		ticks[row] = append(ticks[row], now)
		mu.Unlock()
	}
	cfg.OnRowDone = func(row int) {
		now := time.Now()
		mu.Lock()
		rowDone[row] = now
		mu.Unlock()
	}
	if journal {
		cfg.CheckpointEveryS = checkpointEveryS
		cfg.OnRowCheckpoint = func(row int, snaps []*checkpoint.Snapshot) {
			t := time.Now()
			// The size sprintd's journal frames the set in: magic, rack
			// count, then one length-prefixed encoding per rack.
			n := int64(len("SPRDROW1") + binary.Size(uint32(0)))
			for _, sp := range snaps {
				b, err := checkpoint.Encode(sp)
				if err != nil {
					mu.Lock()
					ckptErr = err
					mu.Unlock()
					return
				}
				n += int64(binary.Size(uint32(0)) + len(b))
			}
			d := time.Since(t)
			mu.Lock()
			ckptSaves++
			ckptBytes += n
			ckptTime += d
			mu.Unlock()
			tr.add(runID, "checkpoint", 0, t, t.Add(d), map[string]float64{"row": float64(row), "bytes": float64(n)})
		}
	}

	ta := time.Now()
	if _, err := hier.Allocate(cfg); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var (
		doc     map[string]any
		perRack []*sim.Result
		link    [2]float64 // grants, beats sent
	)
	if spec.linked() {
		res, err := hier.RunLinked(cfg)
		if err != nil {
			return nil, err
		}
		doc = linkedDoc(res)
		for _, row := range res.Rows {
			perRack = append(perRack, row.Racks...)
			link[0] += float64(row.Transport.GrantsSent)
			link[1] += float64(row.Transport.BeatsSent)
		}
	} else {
		res, err := hier.RunSweep(cfg)
		if err != nil {
			return nil, err
		}
		doc = sweepDoc(res)
		for _, row := range res.Rows {
			perRack = append(perRack, row...)
		}
	}
	t1 := time.Now()
	if ckptErr != nil {
		return nil, fmt.Errorf("checkpoint encode: %w", ckptErr)
	}
	out, err := finish(&replayOut{decisions00: sinks[0][0].Count(), registry: runReg.Snapshot(), wallS: t1.Sub(t0).Seconds()}, doc, planes)
	if err != nil {
		return nil, err
	}

	root := tr.add(runID, "replay", 0, t0, t1, nil)
	tr.add(runID, "hier.allocate", root, ta, t0, nil)

	// Registry figures summed over racks.
	var (
		ticksRun, tickSum, tickN, mpcSum, mpcN, qpSum, qpN float64
		unconv, hits, evict, decisions, decBytes           float64
		spans, skipped                                     float64
	)
	for r := range regs {
		for j, reg := range regs[r] {
			snap := reg.Snapshot()
			ticksRun += value(snap, "sim_ticks_total")
			s, n := hist(snap, "engine_tick_seconds")
			tickSum, tickN = tickSum+s, tickN+n
			s, n = hist(snap, "mpc_solve_seconds")
			mpcSum, mpcN = mpcSum+s, mpcN+n
			s, n = hist(snap, "qp_iterations")
			qpSum, qpN = qpSum+s, qpN+n
			unconv += value(snap, "qp_unconverged_total")
			hits += value(snap, "qp_cache_hits")
			evict += value(snap, "qp_cache_evictions")
			decisions += float64(sinks[r][j].Count())
			decBytes += float64(counts[r][j].n)
		}
	}
	for _, res := range perRack {
		spans += float64(res.Engine.Spans)
		skipped += float64(res.Engine.TicksSkipped)
	}
	var obsSpans, obsAlerts float64
	for _, p := range planes {
		obsSpans += float64(len(p.Spans()))
		obsAlerts += float64(len(p.Alerts()))
	}

	// Fleet timing from the callbacks. Rows run one after another, so a
	// row's span runs from its first RackOptions call to its last tick
	// (linked) or its OnRowDone (sweep).
	var intervals, rowSecs []float64
	var rowSpans float64
	var setup time.Duration
	prevEnd := t0
	for r := 0; r < nrows; r++ {
		end := rowDone[r]
		if spec.linked() {
			if len(ticks[r]) == 0 {
				return nil, fmt.Errorf("row %d never ticked", r)
			}
			for k := 1; k < len(ticks[r]); k++ {
				intervals = append(intervals, float64(ticks[r][k].Sub(ticks[r][k-1]))/float64(time.Microsecond))
			}
			end = ticks[r][len(ticks[r])-1]
			tr.add(runID, "hier.row_setup", root, rowStart[r], ticks[r][0], map[string]float64{"row": float64(r)})
		}
		rowSecs = append(rowSecs, end.Sub(prevEnd).Seconds())
		rowSpans += end.Sub(rowStart[r]).Seconds()
		tr.add(runID, "hier.row", root, rowStart[r], end, map[string]float64{"row": float64(r)})
		prevEnd = end
	}
	if spec.linked() {
		setup = ticks[0][0].Sub(t0)
	} else {
		setup = rowStart[0].Sub(t0)
	}
	wall := t1.Sub(t0).Seconds()
	out.self = map[string]float64{
		"sim (plant, policy outside MPC)": (tickSum - mpcSum),
		"control (MPC + QP)":              mpcSum,
		"checkpoint":                      ckptTime.Seconds(),
		"hier/cluster/link":               rowSpans - tickSum - ckptTime.Seconds(),
		"unattributed":                    wall - rowSpans,
	}

	racks := float64(len(perRack))
	out.layer = map[string]float64{
		"hier.setup_ms":             ms(setup),
		"hier.row_tick_us_mean":     zeroNaN(mean(intervals)),
		"hier.row_tick_us_p99":      zeroNaN(percentile(intervals, 0.99)),
		"hier.row_imbalance":        maxOf(rowSecs) / mean(rowSecs),
		"hier.sweep_row_s":          0,
		"link.grants_sent":          link[0],
		"link.beats_sent":           link[1],
		"sim.rack_ticks":            ticksRun,
		"sim.tick_us":               1e6 * tickSum / tickN,
		"engine.spans":              spans,
		"engine.ticks_skipped_frac": skipped / (racks * float64(steps)),
		"control.mpc_solves":        mpcN,
		"control.mpc_solve_us":      1e6 * mpcSum / mpcN,
		"sim.non_mpc_tick_us":       1e6 * (tickSum - mpcSum) / tickN,
		"qp.sweeps_mean":            qpSum / qpN,
		"qp.unconverged":            unconv,
		"qp.cache_hits":             hits,
		"qp.cache_evictions":        evict,
		"telemetry.decisions":       decisions,
		"telemetry.decision_bytes":  decBytes,
		"obs.spans":                 obsSpans,
		"obs.alerts":                obsAlerts,
		"checkpoint.saves":          float64(ckptSaves),
		"checkpoint.bytes":          float64(ckptBytes),
		"trace.unattributed_frac":   (wall - rowSpans) / wall,
	}
	if !spec.linked() {
		out.layer["hier.sweep_row_s"] = mean(rowSecs)
	}
	return out, nil
}

func value(s telemetry.Snapshot, name string) float64 {
	v, _ := s.Value(name)
	return v
}

// hist returns a histogram's sample sum and count.
func hist(s telemetry.Snapshot, name string) (sum, count float64) {
	p, ok := s.Get(name)
	if !ok {
		return 0, 0
	}
	return p.Value, float64(p.Count)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// linkedDoc mirrors the "result" document of sprintd's run summary for a
// linked run (cmd/sprintd server.go, run.summary).
func linkedDoc(res *hier.Result) map[string]any {
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

// sweepDoc mirrors the summary "result" document of a sweep run.
func sweepDoc(res *hier.SweepResult) map[string]any {
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

// normalise round-trips a document through JSON so it compares equal to
// the same document decoded from sprintd's response.
func normalise(doc any) (any, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	var out any
	return out, json.Unmarshal(b, &out)
}

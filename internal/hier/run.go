package hier

import (
	"fmt"
	"sync"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/cluster"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

// Result aggregates a hierarchical linked run: the resolved allocation,
// every row's linked-cluster result, and the building-level safety record.
type Result struct {
	// Alloc is the budget waterfall the run executed.
	Alloc Allocation
	// Rows holds each row's linked result (feeder record, link accounting,
	// per-rack results), index = row id.
	Rows []*cluster.LinkedResult

	// ResumeStep is the first step of the building-level series: 0 for a
	// fresh run; for a run resumed through Config.Resume it is the latest
	// row's resume step, since the building draw is only defined where
	// every row has samples. Per-row statistics cover each row's own
	// resumed window.
	ResumeStep int

	// BuildingAggregateW is the building feeder draw per tick from
	// ResumeStep on — the sum of the row aggregates over the common
	// window.
	BuildingAggregateW []float64
	// BuildingPeakW and BuildingMeanW summarize the building draw.
	BuildingPeakW, BuildingMeanW float64
	// BuildingExceedFrac is the fraction of ticks the building draw
	// exceeded the building budget by more than cluster.FeederTolerance.
	BuildingExceedFrac float64
	// BuildingTrips counts trips of a shadow breaker rated at the building
	// budget (metric-only, like the rows' feeder breakers).
	BuildingTrips int

	// Safety rollups summed across every rack in the building.
	CBTrips        int
	OutageS        float64
	DeadlineMisses int
}

// DegradedS sums degraded-mode seconds across every rack in the building.
func (r *Result) DegradedS() float64 {
	var s float64
	for _, row := range r.Rows {
		s += row.DegradedS()
	}
	return s
}

// Resyncs sums degraded→coordinated recoveries across the building.
func (r *Result) Resyncs() int {
	var n int
	for _, row := range r.Rows {
		n += row.Resyncs()
	}
	return n
}

// RowTrips returns each row's shadow feeder-breaker trip count.
func (r *Result) RowTrips() []int {
	out := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.FeederTrips
	}
	return out
}

// rowScenario builds row r's scenario: the shared scenario with seeds
// offset by the row's first global rack index (the row's cluster offsets a
// further +i per rack, so every rack in the building draws distinct
// traffic, noise and fault timings), and the row's fault-plan override if
// one is configured.
func rowScenario(c Config, ra RowAllocation, row int) sim.Scenario {
	scn := c.Scenario
	if c.Rows[row].Faults != nil {
		scn.Faults = *c.Rows[row].Faults
	}
	start := int64(ra.StartRack)
	scn.Interactive.Seed += start
	scn.Rack.Seed += start
	scn.Faults.Seed += start
	return scn
}

// rowClusterConfig assembles row r's linked-cluster configuration from the
// shared scenario and the row's granted budget.
func rowClusterConfig(c Config, a Allocation, row int) cluster.Config {
	ra := a.Rows[row]
	ccfg := cluster.Config{
		NumRacks:      ra.Racks,
		Scenario:      rowScenario(c, ra, row),
		FeederBudgetW: ra.BudgetW,
		SprintCon:     c.SprintCon,
		Serial:        c.Serial,
		Stop:          c.Stop,
	}
	if c.CheckpointEveryS > 0 && c.OnRowCheckpoint != nil {
		sink := c.OnRowCheckpoint
		ccfg.Checkpoint = &cluster.LinkedCheckpoint{
			EveryS: c.CheckpointEveryS,
			Sink:   func(snaps []*checkpoint.Snapshot) { sink(row, snaps) },
		}
	}
	if c.Resume != nil && row < len(c.Resume) {
		ccfg.Resume = c.Resume[row]
	}
	ccfg.Link.Enabled = true
	ccfg.Link.Seed = c.Seed + int64(row)
	if len(c.Obs) > 0 {
		ccfg.Link.Obs = c.Obs[row]
	}
	if c.RackOptions != nil {
		ccfg.Link.RackOptions = func(rack int) sim.RunOptions {
			return c.RackOptions(row, rack)
		}
	}
	if c.OnRowTick != nil {
		ccfg.Link.OnTick = func(step int, nowS, aggregateW float64) {
			c.OnRowTick(row, step, nowS, aggregateW)
		}
	}
	return ccfg
}

// RunLinked executes the building: Allocate resolves the waterfall, then
// every row runs as an independent linked cluster (concurrently unless
// Config.Serial — rows only share the read-only configuration, so results
// are bit-identical either way) against its granted budget. The building
// draw, the sum of the row aggregates, is scored against a shadow breaker
// at the building budget.
func RunLinked(c Config) (*Result, error) {
	if err := c.checkRowSlices(); err != nil {
		return nil, err
	}
	a, err := Allocate(c)
	if err != nil {
		return nil, err
	}
	out := &Result{Alloc: a, Rows: make([]*cluster.LinkedResult, len(a.Rows))}
	errs := make([]error, len(a.Rows))
	runRow := func(i int) {
		// A panic in a row (policy, link callback, checkpoint sink) fails
		// the run with a *sim.PanicError instead of killing the process.
		defer sim.RecoverPanic(&errs[i])
		out.Rows[i], errs[i] = cluster.RunLinked(rowClusterConfig(c, a, i))
	}
	if c.Serial {
		for i := range a.Rows {
			runRow(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range a.Rows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runRow(i)
			}(i)
		}
		wg.Wait()
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("hier: row %d: %w", i, e)
		}
	}

	// Building draw over the common window: rows resumed from journaled
	// snapshots may start at different steps, so the building series is
	// only defined from the latest row start on. Fresh runs have every
	// StartStep zero and the legacy full-length behavior.
	steps := -1
	for i, row := range out.Rows {
		if row.StartStep > out.ResumeStep {
			out.ResumeStep = row.StartStep
		}
		if rowSteps := row.StartStep + len(row.AggregateW); steps == -1 {
			steps = rowSteps
		} else if rowSteps != steps {
			return nil, fmt.Errorf("hier: row %d aggregate length mismatch", i)
		}
	}
	out.BuildingAggregateW = make([]float64, steps-out.ResumeStep)
	for _, row := range out.Rows {
		out.CBTrips += row.CBTrips
		out.OutageS += row.OutageS
		out.DeadlineMisses += row.DeadlineMisses
		off := out.ResumeStep - row.StartStep
		for t := range out.BuildingAggregateW {
			out.BuildingAggregateW[t] += row.AggregateW[off+t]
		}
	}
	out.BuildingPeakW = stats.Max(out.BuildingAggregateW)
	out.BuildingMeanW = stats.Mean(out.BuildingAggregateW)
	out.BuildingExceedFrac = stats.FracAbove(out.BuildingAggregateW, a.BuildingBudgetW*(1+cluster.FeederTolerance))
	out.BuildingTrips = cluster.ShadowTrips(a.BuildingBudgetW, out.BuildingAggregateW, c.Scenario.DtS)

	if c.Metrics != nil {
		registerHierMetrics(c, out)
	}
	return out, nil
}

// registerHierMetrics publishes the run's per-level safety record on the
// configured registry.
func registerHierMetrics(c Config, out *Result) {
	m := c.Metrics
	m.Gauge("hier_building_budget_w", "building feeder rating").Set(out.Alloc.BuildingBudgetW)
	m.Gauge("hier_building_granted_w", "sum of row budgets granted by the waterfall").Set(out.Alloc.TotalGrantedW())
	m.Gauge("hier_building_peak_w", "peak building feeder draw").Set(out.BuildingPeakW)
	m.Gauge("hier_building_exceed_frac", "fraction of ticks the building draw exceeded its budget beyond tolerance").Set(out.BuildingExceedFrac)
	m.Gauge("hier_building_trips", "building shadow-breaker trips").Set(float64(out.BuildingTrips))
	m.Gauge("hier_degraded_seconds", "rack-seconds in the degraded standalone fallback across the building").Set(out.DegradedS())
	m.Counter("hier_cb_trips_total", "rack breaker trips across the building").Add(float64(out.CBTrips))
	m.Counter("hier_deadline_misses_total", "batch deadline misses across the building").Add(float64(out.DeadlineMisses))
	m.Counter("hier_resyncs_total", "degraded→coordinated recoveries across the building").Add(float64(out.Resyncs()))
	for i, row := range out.Rows {
		p := fmt.Sprintf("hier_row%d_", i)
		m.Gauge(p+"budget_w", "row feeder budget granted by the waterfall").Set(out.Alloc.Rows[i].BudgetW)
		m.Gauge(p+"exceed_frac", "fraction of ticks the row draw exceeded its budget beyond tolerance").Set(row.FeederExceedFrac)
		m.Gauge(p+"trips", "row shadow-breaker trips").Set(float64(row.FeederTrips))
		m.Gauge(p+"degraded_seconds", "rack-seconds in the degraded fallback on this row").Set(row.DegradedS())
	}
}

package hier

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sprintcon/internal/core"
	"sprintcon/internal/sim"
)

// Result aggregates a hierarchical linked run: the resolved allocation,
// every row's linked result, and the building-level safety record.
type Result struct {
	// Alloc is the budget waterfall the run executed.
	Alloc Allocation
	// Rows holds each row's linked result (feeder record, link accounting,
	// per-rack results), index = row id.
	Rows []*RowResult

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
	// exceeded the building budget by more than FeederTolerance.
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

// rowScenario builds row r's scenario: the shared scenario with seeds
// offset by the row's first global rack index (rackJob offsets a
// further +j per rack, so every rack in the building draws distinct
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

// rackJob builds rack j of row r: the row's scenario with the rack-scoped
// half of its fault plan and seeds offset by a further j (the rack's
// global index in all), and a SprintCon whose overload phase starts at
// offsetS.
func rackJob(c Config, a Allocation, row, j int, offsetS float64) (sim.Scenario, *core.SprintCon) {
	scn := rowScenario(c, a.Rows[row], row)
	scn.Faults, _ = scn.Faults.Split()
	scn.Interactive.Seed += int64(j)
	scn.Rack.Seed += int64(j)
	scn.Faults.Seed += int64(j)

	pcfg := c.SprintCon
	acfg := c.allocConfig()
	acfg.PhaseOffsetS = offsetS
	pcfg.AllocOverride = &acfg
	return scn, core.New(pcfg)
}

// roundTicks is how many lock-step ticks a worker advances a row before
// it hands the row back and takes the next one. Between Go's preemption
// slices the goroutines waiting on the rows run, and each of sprintd's
// stream followers writes what its row produced since it last ran, so
// the fewer rows a slice touches, the fewer writes. A round of a 16-rack
// row spans several slices, so most slices touch one row; with every
// stream followed, one-tick rounds cost sprintd three times the write
// syscalls. The wait a long round imposes on the rows queued behind
// delays no first decision, since a row's first round is one tick.
const roundTicks = 256

// RunLinked executes the building: Validate resolves the waterfall, then
// every row runs its own lock-step linked loop — a row coordinator, a
// lossy transport, and lease-based clients per rack — against its granted
// budget. Rows run on W = min(rows, GOMAXPROCS) workers (one under
// Config.Serial), so the run never has more simulation goroutines than
// Ps. The workers share one queue of rows in row order: a worker takes
// the row at its head, advances it one round, and puts it back at the
// tail, so rows share the workers evenly whatever their number. A row's
// first round is one tick and builds the row just before it, so every
// row serves its first decision before any row runs a full round; later
// rounds are roundTicks ticks. Rows only share the read-only
// configuration, so results are bit-identical for every W. The building
// draw, the sum of the row aggregates, is scored against a shadow
// breaker at the building budget.
func RunLinked(c Config) (*Result, error) {
	a, err := c.resolve()
	if err != nil {
		return nil, err
	}
	out := &Result{Alloc: a, Rows: make([]*RowResult, len(a.Rows))}
	errs := make([]error, len(a.Rows))
	workers, procs := 1, 1
	if !c.Serial {
		procs = runtime.GOMAXPROCS(0)
		workers = min(len(a.Rows), procs)
	}
	// Racks within a row fan out only over the Ps the row workers leave
	// idle, the leftover ones going to the first workers, so a building
	// with rows ≥ GOMAXPROCS spawns no per-tick goroutines.
	rackWorkers := func(w int) int {
		if w < procs%workers {
			return procs/workers + 1
		}
		return procs / workers
	}
	q := newRowQueue(len(a.Rows))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.work(c, a, rackWorkers(w), out.Rows, errs)
		}()
	}
	q.work(c, a, rackWorkers(0), out.Rows, errs)
	wg.Wait()
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
	out.BuildingPeakW, out.BuildingMeanW, out.BuildingExceedFrac, out.BuildingTrips =
		scoreFeeder(a.BuildingBudgetW, out.BuildingAggregateW, c.Scenario.DtS)

	if c.Metrics != nil {
		registerHierMetrics(c, out)
		registerLinkMetrics(c.Metrics, out.Rows)
	}
	return out, nil
}

// rowQueue hands a building's rows to RunLinked's workers round by round.
// A row is in the queue only while no worker holds it, and only the
// worker holding a row touches its loop.
type rowQueue struct {
	rows  chan int   // rows waiting for a worker; holds every row, so a send never blocks
	loops []*rowLoop // built rows, nil until a row's first round
	live  atomic.Int64
}

// newRowQueue queues rows 0…n−1 in row order.
func newRowQueue(n int) *rowQueue {
	q := &rowQueue{rows: make(chan int, n), loops: make([]*rowLoop, n)}
	for i := range n {
		q.rows <- i
	}
	q.live.Store(int64(n))
	return q
}

// work is one RunLinked worker: it takes rows off the queue, runs each
// one round, and puts back every row that is still running, until the
// last row has finished or failed. A row that fails — an error or a
// panic in any phase, including a policy, link callback or checkpoint
// sink — stops only itself: its error lands in errs[row] and the other
// rows run on.
func (q *rowQueue) work(c Config, a Allocation, rackWorkers int, out []*RowResult, errs []error) {
	for i := range q.rows {
		running, err := q.round(c, a, i, rackWorkers, out)
		if err != nil {
			errs[i] = err
		}
		if running {
			q.rows <- i
		} else if q.live.Add(-1) == 0 {
			close(q.rows)
		}
	}
}

// round runs row i's next round and reports whether the row is still
// running; a finished row leaves its result in out.
func (q *rowQueue) round(c Config, a Allocation, i, rackWorkers int, out []*RowResult) (running bool, err error) {
	l, ticks := q.loops[i], roundTicks
	if l == nil {
		if l, err = newRowLoop(c, a, i); err != nil {
			return false, err
		}
		q.loops[i], ticks = l, 1
	}
	for range ticks {
		done, err := l.advance(rackWorkers)
		if err != nil {
			return false, err
		}
		if done {
			out[i], err = l.result()
			return false, err
		}
	}
	return true, nil
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

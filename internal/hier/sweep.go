package hier

import (
	"fmt"
	"math"

	"sprintcon/internal/sim"
)

// SweepResult aggregates a hierarchical static-offset sweep.
type SweepResult struct {
	// Alloc is the budget waterfall the sweep executed.
	Alloc Allocation
	// Rows holds each row's per-rack results, index = [row][rack].
	Rows [][]*sim.Result

	// RowAggregateW is each row's feeder draw per tick; RowExceedFrac and
	// RowTrips the per-row exceedance fraction and shadow-breaker trips
	// against the granted row budgets.
	RowAggregateW [][]float64
	RowExceedFrac []float64
	RowTrips      []int

	// BuildingAggregateW, BuildingExceedFrac and BuildingTrips mirror the
	// row records at the building level.
	BuildingAggregateW           []float64
	BuildingPeakW, BuildingMeanW float64
	BuildingExceedFrac           float64
	BuildingTrips                int

	// Safety rollups summed across every rack in the building.
	CBTrips        int
	OutageS        float64
	DeadlineMisses int
}

// sweepJob builds rack j of row r for a sweep: link-scoped faults dropped
// (a sweep has no link) and the statically slot-packed phase offset
// slot = ⌊j/K⌋, the same packing the row coordinator would bootstrap.
func sweepJob(c Config, a Allocation, row, j int) (sim.Scenario, sim.Policy) {
	acfg := c.allocConfig()
	cycle := acfg.OverloadS + acfg.RecoveryS
	slot := j / a.Rows[row].SlotCapacity
	return rackJob(c, a, row, j, math.Mod(cycle-float64(slot)*acfg.OverloadS, cycle))
}

// RunSweep executes the building with static, per-row slot-packed phase
// offsets — no control link, no coordinator — on the sim worker pool,
// sharded row by row: each row's racks run as one sim.RunManyOrdered batch
// (Config.Serial runs it on one worker), rows in order. Results — and a
// failing or panicking rack's error — are identical between the serial and
// parallel paths. Budgets come from the same Allocate waterfall as
// RunLinked, and every level is scored by the same shadow breakers.
func RunSweep(c Config) (*SweepResult, error) {
	a, err := Allocate(c)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{
		Alloc:         a,
		Rows:          make([][]*sim.Result, len(a.Rows)),
		RowAggregateW: make([][]float64, len(a.Rows)),
		RowExceedFrac: make([]float64, len(a.Rows)),
		RowTrips:      make([]int, len(a.Rows)),
	}
	workers := 0 // GOMAXPROCS
	if c.Serial {
		workers = 1
	}
	for r := range a.Rows {
		if c.Stop != nil {
			select {
			case <-c.Stop:
				return nil, fmt.Errorf("hier: row %d: %w", r, sim.ErrCanceled)
			default:
			}
		}
		jobs := make([]sim.Job, a.Rows[r].Racks)
		for j := range jobs {
			scn, p := sweepJob(c, a, r, j)
			var o sim.RunOptions
			if c.RackOptions != nil {
				o = c.RackOptions(r, j)
			}
			o.Stop = c.Stop
			jobs[j] = sim.Job{Key: fmt.Sprintf("row%d-rack%d", r, j), Scenario: scn, Policy: p, Opts: o}
		}
		out.Rows[r], err = sim.RunManyOrdered(jobs, workers)
		if err != nil {
			return nil, fmt.Errorf("hier: row %d: %w", r, err)
		}
		if c.OnRowDone != nil {
			c.OnRowDone(r)
		}
	}

	dt := c.Scenario.DtS
	for r, racks := range out.Rows {
		var agg []float64
		for j, res := range racks {
			out.CBTrips += res.CBTrips
			out.OutageS += res.OutageS
			out.DeadlineMisses += res.DeadlineMisses
			if agg == nil {
				agg = make([]float64, len(res.Series.CBW))
			}
			if len(res.Series.CBW) != len(agg) {
				return nil, fmt.Errorf("hier: row %d rack %d series length mismatch", r, j)
			}
			for t, w := range res.Series.CBW {
				agg[t] += w
			}
		}
		out.RowAggregateW[r] = agg
		_, _, out.RowExceedFrac[r], out.RowTrips[r] = scoreFeeder(a.Rows[r].BudgetW, agg, dt)
		if out.BuildingAggregateW == nil {
			out.BuildingAggregateW = make([]float64, len(agg))
		}
		for t, w := range agg {
			out.BuildingAggregateW[t] += w
		}
	}
	out.BuildingPeakW, out.BuildingMeanW, out.BuildingExceedFrac, out.BuildingTrips =
		scoreFeeder(a.BuildingBudgetW, out.BuildingAggregateW, dt)
	return out, nil
}

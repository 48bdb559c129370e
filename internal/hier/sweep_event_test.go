package hier

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
	"sprintcon/internal/workload"
)

// quiesceSweepConfig builds a small building whose racks the event engine
// can fast-forward: deterministic plant, piecewise-constant diurnal demand
// with plateaus in the settling regime, and sprinting disabled so the
// overload schedule stays invisible.
func quiesceSweepConfig(t *testing.T, durationS float64) Config {
	t.Helper()
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 3}, {Racks: 2}}
	c.Scenario.DurationS = durationS
	c.Scenario.BurstDurationS = durationS
	c.Scenario.AmbientSwingC = 0
	c.Scenario.Rack.MonitorNoiseStd = 0
	c.Scenario.Rack.UtilJitterStd = 0
	c.Scenario.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, 900, durationS, c.Scenario.DtS)
	if err != nil {
		t.Fatal(err)
	}
	c.Scenario.Trace = tr
	c.SprintCon.NoSprint = true
	return c
}

// bitEqualRack asserts two rack results are bit-identical in every series
// column and safety summary.
func bitEqualRack(t *testing.T, r, j int, x, y *sim.Result) {
	t.Helper()
	a, b := &x.Series, &y.Series
	cols := []struct {
		name string
		a, b []float64
	}{
		{"Time", a.Time, b.Time},
		{"TotalW", a.TotalW, b.TotalW},
		{"CBW", a.CBW, b.CBW},
		{"UPSW", a.UPSW, b.UPSW},
		{"PCbW", a.PCbW, b.PCbW},
		{"PBatchW", a.PBatchW, b.PBatchW},
		{"FreqInter", a.FreqInter, b.FreqInter},
		{"FreqBatch", a.FreqBatch, b.FreqBatch},
		{"SoC", a.SoC, b.SoC},
		{"Demand", a.Demand, b.Demand},
	}
	for _, c := range cols {
		if len(c.a) != len(c.b) {
			t.Fatalf("row %d rack %d %s: length %d vs %d", r, j, c.name, len(c.a), len(c.b))
		}
		for i := range c.a {
			if math.Float64bits(c.a[i]) != math.Float64bits(c.b[i]) {
				t.Fatalf("row %d rack %d %s[%d]: %v vs %v", r, j, c.name, i, c.a[i], c.b[i])
			}
		}
	}
	if x.CBTrips != y.CBTrips || x.DeadlineMisses != y.DeadlineMisses ||
		math.Float64bits(x.OutageS) != math.Float64bits(y.OutageS) ||
		math.Float64bits(x.EnergyTotalWh) != math.Float64bits(y.EnergyTotalWh) {
		t.Fatalf("row %d rack %d safety summary differs", r, j)
	}
}

// bitEqualSweep asserts two sweeps are bit-identical: every per-rack series
// column, the aggregates at every level, and the safety rollups.
func bitEqualSweep(t *testing.T, a, b *SweepResult) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count %d != %d", len(a.Rows), len(b.Rows))
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			t.Fatalf("row %d rack count differs", r)
		}
		for j := range a.Rows[r] {
			bitEqualRack(t, r, j, a.Rows[r][j], b.Rows[r][j])
		}
	}
	for r := range a.RowAggregateW {
		for i := range a.RowAggregateW[r] {
			if math.Float64bits(a.RowAggregateW[r][i]) != math.Float64bits(b.RowAggregateW[r][i]) {
				t.Fatalf("row %d aggregate differs at tick %d", r, i)
			}
		}
	}
	for i := range a.BuildingAggregateW {
		if math.Float64bits(a.BuildingAggregateW[i]) != math.Float64bits(b.BuildingAggregateW[i]) {
			t.Fatalf("building aggregate differs at tick %d", i)
		}
	}
	if a.CBTrips != b.CBTrips || a.DeadlineMisses != b.DeadlineMisses ||
		math.Float64bits(a.OutageS) != math.Float64bits(b.OutageS) {
		t.Fatal("safety rollups differ")
	}
	if a.BuildingTrips != b.BuildingTrips ||
		math.Float64bits(a.BuildingExceedFrac) != math.Float64bits(b.BuildingExceedFrac) {
		t.Fatal("building shadow-breaker scores differ")
	}
}

// stepRack is the tick reference oracle for rack j of row r: the rack's
// sweep job driven tick by tick through Runner.Step, never opening a
// quiescent span.
func stepRack(t *testing.T, c Config, a Allocation, r, j int) *sim.Result {
	t.Helper()
	scn, p := sweepJob(c, a, r, j)
	run, err := sim.NewRunner(scn, p, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for !run.Done() {
		if err := run.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return run.Finish()
}

// The default sweep runs every rack on the event core. Each rack must be
// bit-identical to its Runner.Step oracle — racks are independent
// single-rack runs, so the per-rack equivalence lifts to every aggregate in
// the waterfall — and the racks must genuinely fast-forward (spans open,
// ticks get skipped). The serial sweep matches the parallel one too:
// scheduling and span opening commute.
func TestSweepEventEngineBitIdentical(t *testing.T) {
	c := quiesceSweepConfig(t, 3600)
	a, err := Allocate(c)
	if err != nil {
		t.Fatal(err)
	}
	event, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}

	var spans, skipped int
	for r := range event.Rows {
		for j, res := range event.Rows[r] {
			bitEqualRack(t, r, j, stepRack(t, c, a, r, j), res)
			spans += res.Engine.Spans
			skipped += res.Engine.TicksSkipped
		}
	}
	if spans == 0 || skipped == 0 {
		t.Fatalf("sweep racks never fast-forwarded: spans=%d skipped=%d", spans, skipped)
	}
	t.Logf("spans=%d skipped=%d across %d racks", spans, skipped, event.Alloc.TotalRacks)

	cs := c
	cs.Serial = true
	serial, err := RunSweep(cs)
	if err != nil {
		t.Fatal(err)
	}
	bitEqualSweep(t, event, serial)
}

// panicWriter fails every decision-record write with a panic.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("decision writer exploded") }

// A rack that panics mid-run must fail the sweep with a *sim.PanicError on
// the serial path exactly as on the parallel one, never crash the caller.
func TestSweepRackPanicIsolatedSerialAndParallel(t *testing.T) {
	for _, serial := range []bool{false, true} {
		c := quiesceSweepConfig(t, 120)
		c.Serial = serial
		c.RackOptions = func(row, rack int) sim.RunOptions {
			if row == 1 && rack == 1 {
				return sim.RunOptions{Decisions: telemetry.NewDecisionSink(panicWriter{})}
			}
			return sim.RunOptions{}
		}
		_, err := RunSweep(c)
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("serial=%v: err = %v, want a *sim.PanicError", serial, err)
		}
		if !strings.Contains(err.Error(), "decision writer exploded") || !strings.Contains(err.Error(), "hier: row 1") {
			t.Fatalf("serial=%v: error lacks panic value or row attribution: %v", serial, err)
		}
	}
}

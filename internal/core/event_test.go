package core

import (
	"fmt"
	"math"
	"testing"

	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// quiesceScenario returns a scenario the event engine can fast-forward:
// deterministic plant (no monitor noise, no utilization jitter, no ambient
// swing) and a piecewise-constant diurnal demand trace with long plateaus.
func quiesceScenario(t *testing.T, durationS float64) sim.Scenario {
	t.Helper()
	return plateauScenario(t, quiesceLevels, 1800, durationS)
}

// quiesceLevels are the plateau levels of the quiescent diurnal scenarios.
// They sit in the regime where the capped closed loop settles to an exact
// fixed point (batch throttled against its frequency floor). At lighter
// demand the quantized batch actuator hunts between two P-states forever —
// genuine plant dynamics the event engine must not (and does not)
// fast-forward.
var quiesceLevels = []float64{0.5, 0.62, 0.75, 0.55}

// plateauScenario is quiesceScenario over an arbitrary stepped diurnal
// trace: the given demand levels, each held for plateauS seconds, cycling.
func plateauScenario(t testing.TB, levels []float64, plateauS, durationS float64) sim.Scenario {
	t.Helper()
	scn := sim.DefaultScenario()
	scn.DurationS = durationS
	scn.BurstDurationS = durationS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal(levels, plateauS, durationS, scn.DtS)
	if err != nil {
		t.Fatal(err)
	}
	scn.Trace = tr
	return scn
}

// fleetRack is rack i of the event-core fleet: the quiescent diurnal
// scenario with plateauS-long plateaus and every seed offset by the rack
// index, the way the hier sweeps offset theirs.
func fleetRack(t testing.TB, i int, plateauS, durationS float64) sim.Scenario {
	t.Helper()
	scn := plateauScenario(t, quiesceLevels, plateauS, durationS)
	g := int64(i)
	scn.Interactive.Seed += g
	scn.Rack.Seed += g
	scn.Faults.Seed += g
	return scn
}

// fleetJobs is the event-core fleet for sim.RunManyOrdered: racks racks
// from fleetRack under cfg, recording every stride-th tick.
func fleetJobs(t testing.TB, cfg Config, racks int, plateauS, durationS float64, stride int) []sim.Job {
	t.Helper()
	jobs := make([]sim.Job, racks)
	for i := range jobs {
		jobs[i] = sim.Job{
			Key:      fmt.Sprintf("rack%d", i),
			Scenario: fleetRack(t, i, plateauS, durationS),
			Policy:   New(cfg),
			Opts:     sim.RunOptions{SeriesStride: stride},
		}
	}
	return jobs
}

// bitEqualF64s compares float slices by IEEE-754 bit pattern (NaN-safe).
func bitEqualF64s(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v (%#x) vs %v (%#x)", name, i,
				a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// assertBitIdentical compares two run results field by field with bitwise
// float equality — the event engine's contract is exactness, not tolerance.
func assertBitIdentical(t *testing.T, tick, event *sim.Result) {
	t.Helper()
	s, e := &tick.Series, &event.Series
	bitEqualF64s(t, "Time", s.Time, e.Time)
	bitEqualF64s(t, "TotalW", s.TotalW, e.TotalW)
	bitEqualF64s(t, "CBW", s.CBW, e.CBW)
	bitEqualF64s(t, "UPSW", s.UPSW, e.UPSW)
	bitEqualF64s(t, "PCbW", s.PCbW, e.PCbW)
	bitEqualF64s(t, "PBatchW", s.PBatchW, e.PBatchW)
	bitEqualF64s(t, "FreqInter", s.FreqInter, e.FreqInter)
	bitEqualF64s(t, "FreqBatch", s.FreqBatch, e.FreqBatch)
	bitEqualF64s(t, "SoC", s.SoC, e.SoC)
	bitEqualF64s(t, "Demand", s.Demand, e.Demand)
	for name, pair := range map[string][2]float64{
		"AvgFreqInter":       {tick.AvgFreqInter, event.AvgFreqInter},
		"AvgFreqBatch":       {tick.AvgFreqBatch, event.AvgFreqBatch},
		"OutageS":            {tick.OutageS, event.OutageS},
		"UPSDoD":             {tick.UPSDoD, event.UPSDoD},
		"UPSDischargedWh":    {tick.UPSDischargedWh, event.UPSDischargedWh},
		"MaxCompletionTimeS": {tick.MaxCompletionTimeS, event.MaxCompletionTimeS},
		"CBOverBudgetFrac":   {tick.CBOverBudgetFrac, event.CBOverBudgetFrac},
		"CBTrackingErrorW":   {tick.CBTrackingErrorW, event.CBTrackingErrorW},
		"EnergyCBWh":         {tick.EnergyCBWh, event.EnergyCBWh},
		"EnergyCBOverWh":     {tick.EnergyCBOverWh, event.EnergyCBOverWh},
		"EnergyTotalWh":      {tick.EnergyTotalWh, event.EnergyTotalWh},
		"BatchWorkDoneS":     {tick.BatchWorkDoneS, event.BatchWorkDoneS},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("%s: %v vs %v", name, pair[0], pair[1])
		}
	}
	if tick.CBTrips != event.CBTrips {
		t.Fatalf("CBTrips %d vs %d", tick.CBTrips, event.CBTrips)
	}
	if tick.JobsTotal != event.JobsTotal || tick.JobsCompletedOnce != event.JobsCompletedOnce ||
		tick.DeadlineMisses != event.DeadlineMisses {
		t.Fatalf("job summary differs: %+v vs %+v",
			[3]int{tick.JobsTotal, tick.JobsCompletedOnce, tick.DeadlineMisses},
			[3]int{event.JobsTotal, event.JobsCompletedOnce, event.DeadlineMisses})
	}
	for i := range tick.Jobs {
		a, b := tick.Jobs[i], event.Jobs[i]
		if a.Name != b.Name || a.Core != b.Core || a.Missed != b.Missed ||
			math.Float64bits(a.CompletionS) != math.Float64bits(b.CompletionS) ||
			math.Float64bits(a.Progress) != math.Float64bits(b.Progress) {
			t.Fatalf("job %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(tick.Events) != len(event.Events) {
		t.Fatalf("event log length %d vs %d", len(tick.Events), len(event.Events))
	}
	for i := range tick.Events {
		a, b := tick.Events[i], event.Events[i]
		if a.Kind != b.Kind || a.Msg != b.Msg || a.Seq != b.Seq ||
			math.Float64bits(a.T) != math.Float64bits(b.T) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// runTicks is the tick reference oracle: the same run driven tick by tick
// through Runner.Step, never opening a quiescent span.
func runTicks(t testing.TB, scn sim.Scenario, p sim.Policy, opts sim.RunOptions) *sim.Result {
	t.Helper()
	r, err := sim.NewRunner(scn, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Finish()
}

// runBoth executes the same scenario+config through the Runner.Step oracle
// and through RunWith (the event core) and returns both results.
func runBoth(t *testing.T, cfg Config, scn sim.Scenario, opts sim.RunOptions) (tick, event *sim.Result) {
	t.Helper()
	tick = runTicks(t, scn, New(cfg), opts)
	event, err := sim.RunWith(scn, New(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tick, event
}

// The headline property: a day-fraction diurnal power-capping run is
// bit-identical to the Runner.Step oracle AND the event core actually skips
// the bulk of the ticks. plateau_900s is BenchmarkEventEngine's run.
func TestEventEngineBitIdenticalNoSprintDiurnal(t *testing.T) {
	for _, tc := range []struct {
		name                string
		plateauS, durationS float64
	}{
		{"plateau_1800s", 1800, 4 * 3600},
		{"plateau_900s", 900, 3600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn := plateauScenario(t, quiesceLevels, tc.plateauS, tc.durationS)
			cfg := DefaultConfig()
			cfg.NoSprint = true
			tick, event := runBoth(t, cfg, scn, sim.RunOptions{})
			assertBitIdentical(t, tick, event)
			if tick.Engine.Spans != 0 {
				t.Fatalf("the Runner.Step oracle opened %d spans", tick.Engine.Spans)
			}
			if event.Engine.Spans == 0 {
				t.Fatal("event engine opened no quiescent spans on a diurnal plateau trace")
			}
			frac := float64(event.Engine.TicksSkipped) / (scn.DurationS / scn.DtS)
			if frac < 0.5 {
				t.Fatalf("event engine skipped only %.1f%% of ticks (%d spans)", 100*frac, event.Engine.Spans)
			}
			t.Logf("spans=%d skipped=%d (%.1f%%) events=%d",
				event.Engine.Spans, event.Engine.TicksSkipped, 100*frac, event.Engine.Events)
		})
	}
}

// A full sprint (UPS discharging, overload schedule active) must also be
// bit-identical — even if few or no spans open while the plant is active.
func TestEventEngineBitIdenticalSprint(t *testing.T) {
	scn := quiesceScenario(t, 1800)
	tick, event := runBoth(t, DefaultConfig(), scn, sim.RunOptions{})
	assertBitIdentical(t, tick, event)
}

// The unhardened (paper-faithful) controller takes a different code path
// through Tick; equivalence must hold there too.
func TestEventEngineBitIdenticalUnhardened(t *testing.T) {
	scn := quiesceScenario(t, 2*3600)
	cfg := DefaultConfig()
	cfg.NoSprint = true
	cfg.Harden.Disabled = true
	tick, event := runBoth(t, cfg, scn, sim.RunOptions{})
	assertBitIdentical(t, tick, event)
	if event.Engine.Spans == 0 {
		t.Fatal("unhardened run opened no spans")
	}
}

// PI controller: the integrator drifts, so spans generally cannot open —
// but results must still match bit for bit.
func TestEventEngineBitIdenticalPI(t *testing.T) {
	scn := quiesceScenario(t, 1200)
	cfg := DefaultConfig()
	cfg.Controller = ControllerPI
	tick, event := runBoth(t, cfg, scn, sim.RunOptions{})
	assertBitIdentical(t, tick, event)
}

// Noisy stochastic scenario (default): statically ineligible for spans; the
// event engine must fall back to exact tick stepping.
func TestEventEngineFallsBackOnNoisyScenario(t *testing.T) {
	scn := sim.DefaultScenario()
	tick, event := runBoth(t, DefaultConfig(), scn, sim.RunOptions{})
	assertBitIdentical(t, tick, event)
	if event.Engine.Spans != 0 || event.Engine.TicksSkipped != 0 {
		t.Fatalf("noisy scenario must not fast-forward: %+v", event.Engine)
	}
}

// Mid-run fault injection: spans must stop at fault onsets and resume after
// clears, with bit-identical corruption state throughout.
func TestEventEngineBitIdenticalWithFaults(t *testing.T) {
	scn := quiesceScenario(t, 2*3600)
	scn.Faults = faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MonitorBias, OnsetS: 2500, DurationS: 300, Severity: 0.08},
		{Kind: faults.MonitorFreeze, OnsetS: 5000, DurationS: 120},
	}}
	cfg := DefaultConfig()
	cfg.NoSprint = true
	tick, event := runBoth(t, cfg, scn, sim.RunOptions{})
	assertBitIdentical(t, tick, event)
	if event.Engine.Spans == 0 {
		t.Fatal("faulted diurnal run should still span between fault windows")
	}
}

// A stride-recorded run must be bit-identical too. The fleet cases are the
// first two racks of BenchmarkClusterSweep's fleet recorded at every
// control-period boundary: the recorded P_cb/P_batch targets are the
// controller's decisions, so bitwise equality pins decision equivalence
// there.
func TestEventEngineBitIdenticalWithSeriesStride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoSprint = true
	ctlStride := int(cfg.ControlPeriodS / sim.DefaultScenario().DtS)
	for _, tc := range []struct {
		name   string
		scn    sim.Scenario
		stride int
	}{
		{"quiesce", quiesceScenario(t, 2*3600), 60},
		{"fleet_rack0", fleetRack(t, 0, 3600, 7200), ctlStride},
		{"fleet_rack1", fleetRack(t, 1, 3600, 7200), ctlStride},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tick, event := runBoth(t, cfg, tc.scn, sim.RunOptions{SeriesStride: tc.stride})
			assertBitIdentical(t, tick, event)
			if event.Engine.Spans == 0 {
				t.Fatal("strided run opened no spans")
			}
		})
	}
}

// Every control-period boundary in the series must agree with the oracle:
// the recorded P_cb/P_batch targets are the controller's decisions, so
// bitwise equality here pins decision equivalence at each control period.
func TestEventEngineDecisionsAgreeAtControlBoundaries(t *testing.T) {
	scn := quiesceScenario(t, 3600)
	cfg := DefaultConfig()
	tick, event := runBoth(t, cfg, scn, sim.RunOptions{})
	period := int(cfg.ControlPeriodS / scn.DtS)
	for i := 0; i < len(tick.Series.Time); i += period {
		if math.Float64bits(tick.Series.PCbW[i]) != math.Float64bits(event.Series.PCbW[i]) ||
			math.Float64bits(tick.Series.PBatchW[i]) != math.Float64bits(event.Series.PBatchW[i]) {
			t.Fatalf("control boundary t=%.0f: targets differ", tick.Series.Time[i])
		}
	}
}

// DropEvents must be behavior-invisible: nothing reads the log mid-run, so
// a dropped-log run stays bit-identical to a logging run in every series
// column and summary — only Result.Events comes back empty. This is the
// contract that lets TestEventEngineZeroAllocsPerEvent measure the engine's
// steady-state allocation cost without counting diagnostic log volume.
func TestDropEventsBitInvisible(t *testing.T) {
	scn := quiesceScenario(t, 2*3600)
	cfg := DefaultConfig()
	cfg.NoSprint = true

	logged, err := sim.RunWith(scn, New(cfg), sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := sim.RunWith(scn, New(cfg), sim.RunOptions{DropEvents: true})
	if err != nil {
		t.Fatal(err)
	}

	if len(logged.Events) == 0 {
		t.Fatal("scenario produced no log entries; the test has no teeth")
	}
	if len(dropped.Events) != 0 {
		t.Fatalf("drop mode recorded %d events, want 0", len(dropped.Events))
	}

	a, b := &logged.Series, &dropped.Series
	bitEqualF64s(t, "Time", a.Time, b.Time)
	bitEqualF64s(t, "TotalW", a.TotalW, b.TotalW)
	bitEqualF64s(t, "CBW", a.CBW, b.CBW)
	bitEqualF64s(t, "PCbW", a.PCbW, b.PCbW)
	bitEqualF64s(t, "PBatchW", a.PBatchW, b.PBatchW)
	bitEqualF64s(t, "FreqBatch", a.FreqBatch, b.FreqBatch)
	bitEqualF64s(t, "SoC", a.SoC, b.SoC)
	if logged.CBTrips != dropped.CBTrips ||
		math.Float64bits(logged.EnergyTotalWh) != math.Float64bits(dropped.EnergyTotalWh) ||
		math.Float64bits(logged.BatchWorkDoneS) != math.Float64bits(dropped.BatchWorkDoneS) {
		t.Fatal("summary statistics diverge under drop mode")
	}
	if logged.Engine.Spans != dropped.Engine.Spans ||
		logged.Engine.TicksSkipped != dropped.Engine.TicksSkipped {
		t.Fatalf("engine stats diverge: %+v vs %+v", logged.Engine, dropped.Engine)
	}
}

// TestSpanPlanPinned pins where the event core opens and closes spans:
// (Spans, TicksSkipped, Events) on the quiescent diurnal scenario,
// sprinting and capping, at three durations, summed over the racks of a
// fleet where there are several. Bit identity alone would not notice a
// certificate change that merely moved span boundaries (a later or earlier
// opening is still exact); this table does. The 900 s plateau rows are
// BenchmarkEventEngine's run at 3600 s and at twice that; the 24-rack row is
// BenchmarkClusterSweep's fleet.
func TestSpanPlanPinned(t *testing.T) {
	for _, tc := range []struct {
		noSprint            bool
		plateauS, durationS float64
		racks               int
		want                sim.EngineStats
	}{
		{true, 1800, 3600, 1, sim.EngineStats{Spans: 2, TicksSkipped: 2414, Events: 3}},
		{true, 1800, 7200, 1, sim.EngineStats{Spans: 4, TicksSkipped: 5884, Events: 7}},
		{true, 1800, 14400, 1, sim.EngineStats{Spans: 8, TicksSkipped: 12824, Events: 15}},
		{false, 1800, 3600, 1, sim.EngineStats{Spans: 3, TicksSkipped: 311, Events: 9}},
		{false, 1800, 7200, 1, sim.EngineStats{Spans: 3, TicksSkipped: 311, Events: 9}},
		{false, 1800, 14400, 1, sim.EngineStats{Spans: 7, TicksSkipped: 757, Events: 21}},
		{true, 900, 3600, 1, sim.EngineStats{Spans: 3, TicksSkipped: 2341, Events: 5}},
		{true, 900, 7200, 1, sim.EngineStats{Spans: 7, TicksSkipped: 5701, Events: 11}},
		{true, 3600, 7200, 24, sim.EngineStats{Spans: 48, TicksSkipped: 144528, Events: 72}},
	} {
		cfg := DefaultConfig()
		cfg.NoSprint = tc.noSprint
		results, err := sim.RunManyOrdered(fleetJobs(t, cfg, tc.racks, tc.plateauS, tc.durationS, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		var got sim.EngineStats
		for _, r := range results {
			got.Spans += r.Engine.Spans
			got.TicksSkipped += r.Engine.TicksSkipped
			got.Events += r.Engine.Events
		}
		if got != tc.want {
			t.Errorf("NoSprint=%v plateau %.0f s, %.0f s, %d racks: engine stats %+v, want %+v",
				tc.noSprint, tc.plateauS, tc.durationS, tc.racks, got, tc.want)
		}
	}
}

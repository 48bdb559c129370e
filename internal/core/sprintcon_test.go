package core

import (
	"math"
	"testing"

	"sprintcon/internal/alloc"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

func run(t *testing.T, cfg Config, scn sim.Scenario) *sim.Result {
	t.Helper()
	res, err := sim.Run(scn, New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNameAndModeStrings(t *testing.T) {
	if New(DefaultConfig()).Name() != "SprintCon" {
		t.Fatal("name")
	}
	cfg := DefaultConfig()
	cfg.Controller = ControllerPI
	if New(cfg).Name() != "SprintCon-PI" {
		t.Fatal("PI name")
	}
	for m, want := range map[Mode]string{
		ModeNormal: "normal", ModeNoOverload: "no-overload",
		ModeCBOnly: "cb-only", ModeEnded: "ended",
	} {
		if m.String() != want {
			t.Fatalf("Mode %d string %q", m, m.String())
		}
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should print")
	}
}

func TestStartRejectsNilEnv(t *testing.T) {
	if err := New(DefaultConfig()).Start(nil, sim.DefaultScenario()); err == nil {
		t.Fatal("nil env should error")
	}
}

func TestZeroConfigFilledWithDefaults(t *testing.T) {
	p := New(Config{})
	if p.cfg.ControlPeriodS == 0 || p.cfg.RefTimeConstS == 0 || p.cfg.UPSCtl.PeriodS == 0 || p.cfg.InitialKScale == 0 {
		t.Fatal("zero-value config fields should be defaulted")
	}
}

// The headline safety property: a full 15-minute sprint under SprintCon
// never trips the breaker, never blacks out, and never depletes the UPS.
func TestFifteenMinuteSprintIsSafe(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	if res.CBTrips != 0 {
		t.Fatalf("CB tripped %d times", res.CBTrips)
	}
	if res.OutageS != 0 {
		t.Fatalf("outage of %v s", res.OutageS)
	}
	if res.UPSDoD > 0.5 {
		t.Fatalf("UPS DoD %v too deep", res.UPSDoD)
	}
}

// Paper Fig. 7(a): interactive cores stay at peak frequency for the whole
// sprint.
func TestInteractiveAlwaysAtPeak(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	if res.AvgFreqInter < 0.999 {
		t.Fatalf("interactive avg freq %v, want 1.0", res.AvgFreqInter)
	}
	for i, f := range res.Series.FreqInter {
		if f < 0.999 {
			t.Fatalf("tick %d: interactive freq %v below peak", i, f)
		}
	}
}

// Paper Fig. 8(a): all batch deadlines are met, with completion close to
// the deadline (batch work is not run needlessly fast).
func TestDeadlinesMetAndTimeUsedEfficiently(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d deadline misses", res.DeadlineMisses)
	}
	if res.JobsCompletedOnce != res.JobsTotal {
		t.Fatalf("only %d/%d jobs completed", res.JobsCompletedOnce, res.JobsTotal)
	}
	tu := res.NormalizedTimeUse()
	if tu > 1 || tu < 0.6 {
		t.Fatalf("normalized time use %v, want in (0.6, 1]", tu)
	}
}

// Paper Fig. 7(a): batch frequency follows the overload schedule — higher
// while the breaker is overloaded than while it recovers.
func TestBatchFrequencyTracksOverloadPhases(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	var ovSum, ovN, recSum, recN float64
	for i, tm := range res.Series.Time {
		if tm < 60 {
			continue // skip the initial transient
		}
		phase := math.Mod(tm, 450)
		f := res.Series.FreqBatch[i]
		// Skip phase edges where the controller is still ramping.
		switch {
		case phase > 30 && phase < 150:
			ovSum += f
			ovN++
		case phase > 180 && phase < 450:
			recSum += f
			recN++
		}
	}
	ov, rec := ovSum/ovN, recSum/recN
	if ov <= rec+0.05 {
		t.Fatalf("batch freq overload %v vs recovery %v: want clear phase modulation", ov, rec)
	}
}

// The CB power stays essentially within the budget (paper Fig. 6(a)).
func TestCBBudgetRespected(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	if res.CBOverBudgetFrac > 0.15 {
		t.Fatalf("CB above budget %v of ticks", res.CBOverBudgetFrac)
	}
	// Brief one-period excursions are bounded by the size of a single
	// interactive demand spike (the controller cannot react faster than
	// its period) and must never persist: the feedforward catches up on
	// the next measurement.
	streak := 0
	for i := range res.Series.Time {
		pcb := res.Series.PCbW[i]
		if math.IsNaN(pcb) || math.IsInf(pcb, 1) {
			continue
		}
		if res.Series.CBW[i] > pcb*1.02 {
			streak++
			if streak > 3 {
				t.Fatalf("tick %d: CB above budget for %d consecutive ticks", i, streak)
			}
		} else {
			streak = 0
		}
		if res.Series.CBW[i] > pcb*1.15 {
			t.Fatalf("tick %d: CB %v far above budget %v", i, res.Series.CBW[i], pcb)
		}
	}
}

// DoD comparison backbone of Fig. 8(b): tighter deadlines demand more
// batch power and hence deeper discharge.
func TestDoDGrowsWithTighterDeadline(t *testing.T) {
	scn := sim.DefaultScenario()
	var dods []float64
	for _, d := range []float64{540, 720, 900} {
		scn.BatchDeadlineS = d
		res := run(t, DefaultConfig(), scn)
		dods = append(dods, res.UPSDoD)
	}
	if !(dods[0] > dods[1] && dods[1] >= dods[2]) {
		t.Fatalf("DoD not decreasing with looser deadline: %v", dods)
	}
}

// Supervisor: an undersized UPS forces CB-only mode; the sprint continues
// without an outage, with all load fitted under P_cb.
func TestUPSDepletionEntersCBOnlyMode(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.UPS.CapacityWh = 10 // tiny battery
	p := New(DefaultConfig())
	res, err := sim.Run(scn, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode() != ModeCBOnly && p.Mode() != ModeEnded {
		t.Fatalf("mode %v, want cb-only (or ended) after depletion", p.Mode())
	}
	if res.CBTrips != 0 {
		t.Fatalf("CB tripped %d times in degraded mode", res.CBTrips)
	}
	if res.OutageS != 0 {
		t.Fatalf("outage %v s in degraded mode", res.OutageS)
	}
}

// Supervisor: an aggressive allocator override that would overload the CB
// indefinitely is caught by the near-trip guard.
func TestNearTripGuardStopsOverload(t *testing.T) {
	scn := sim.DefaultScenario()
	acfg := alloc.DefaultConfig(scn.Breaker.RatedPower, scn.Breaker.TripBudget())
	acfg.OverloadS = 400 // far beyond the safe 150 s
	acfg.RecoveryS = 50
	cfg := DefaultConfig()
	cfg.AllocOverride = &acfg
	res := run(t, cfg, scn)
	if res.CBTrips != 0 {
		t.Fatalf("near-trip guard failed: %d trips", res.CBTrips)
	}
}

// The event log records the supervisor's degradation story.
func TestModeTransitionsLogged(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.UPS.CapacityWh = 10 // force depletion
	res, err := sim.Run(scn, New(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var modeEvents int
	for _, e := range res.Events {
		if e.Kind == "mode" {
			modeEvents++
		}
	}
	if modeEvents == 0 {
		t.Fatal("depletion run should log supervisor mode transitions")
	}
	// P_batch budget moves are logged too.
	var pbatchEvents int
	for _, e := range res.Events {
		if e.Kind == "pbatch" {
			pbatchEvents++
		}
	}
	if pbatchEvents == 0 {
		t.Fatal("budget changes should be logged")
	}
}

// Ablation A1: the PI variant also regulates, but the MPC variant tracks
// the batch budget at least as tightly.
func TestPIVariantRunsAndMPCTracksTighter(t *testing.T) {
	scn := sim.DefaultScenario()
	mpc := run(t, DefaultConfig(), scn)
	cfgPI := DefaultConfig()
	cfgPI.Controller = ControllerPI
	pi := run(t, cfgPI, scn)
	if pi.CBTrips != 0 || pi.OutageS != 0 {
		t.Fatalf("PI variant unsafe: trips=%d outage=%v", pi.CBTrips, pi.OutageS)
	}
	if pi.DeadlineMisses > mpc.DeadlineMisses+8 {
		t.Fatalf("PI misses %d ≫ MPC misses %d", pi.DeadlineMisses, mpc.DeadlineMisses)
	}
}

// Mid-length bursts use a single reduced-degree overload: P_cb constant
// and between rated and rated×1.25.
func TestMidBurstConstantOverload(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.DurationS = 480
	scn.BurstDurationS = 480
	scn.BatchDeadlineS = 450
	scn.Interactive.BurstEndS = 480
	res := run(t, DefaultConfig(), scn)
	if res.CBTrips != 0 {
		t.Fatalf("mid burst tripped %d times", res.CBTrips)
	}
	seen := map[float64]bool{}
	for _, pcb := range res.Series.PCbW {
		if !math.IsNaN(pcb) {
			seen[pcb] = true
		}
	}
	if len(seen) != 1 {
		t.Fatalf("mid-burst P_cb should be constant, saw %d values", len(seen))
	}
	for pcb := range seen {
		if pcb <= 3200 || pcb >= 4000 {
			t.Fatalf("mid-burst P_cb %v outside (rated, rated×1.25)", pcb)
		}
	}
}

// Short bursts are left uncontrolled: no UPS discharge is requested and
// the breaker survives on its own tolerance.
func TestShortBurstUncontrolled(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.DurationS = 45
	scn.BurstDurationS = 45
	scn.BatchDeadlineS = 44
	scn.WorkFillMin, scn.WorkFillMax = 0.05, 0.1
	scn.WorkReferenceS = 45
	res := run(t, DefaultConfig(), scn)
	if res.CBTrips != 0 {
		t.Fatalf("short burst tripped")
	}
	if got := stats.Max(res.Series.UPSW); got > 0 {
		t.Fatalf("short burst should not discharge the UPS, saw %v W", got)
	}
}

// Against the same scenario, SprintCon's budgets are reported for plotting.
func TestTargetsReported(t *testing.T) {
	res := run(t, DefaultConfig(), sim.DefaultScenario())
	for i := range res.Series.Time {
		if math.IsNaN(res.Series.PCbW[i]) || math.IsNaN(res.Series.PBatchW[i]) {
			t.Fatalf("tick %d: targets not reported", i)
		}
	}
}

// Determinism: two runs of the same scenario agree exactly.
func TestRunDeterministic(t *testing.T) {
	a := run(t, DefaultConfig(), sim.DefaultScenario())
	b := run(t, DefaultConfig(), sim.DefaultScenario())
	if a.UPSDoD != b.UPSDoD || a.AvgFreqBatch != b.AvgFreqBatch || a.EnergyTotalWh != b.EnergyTotalWh {
		t.Fatal("simulation is not deterministic")
	}
}

package sim

import (
	"errors"
	"math"
	"testing"

	"sprintcon/internal/cpu"
	"sprintcon/internal/rack"
)

// stubPolicy exercises the engine without any control logic.
type stubPolicy struct {
	name     string
	startErr error
	ticks    int
	upsReq   float64
	onTick   func(env *Env, s Snapshot) float64
}

// maxPowerPolicy pins every core of scn's rack at peak frequency each
// tick, through the rack's actuation path: the breaker trips, the UPS
// drains, and the rack eventually goes dark.
func maxPowerPolicy(scn Scenario) *stubPolicy {
	return &stubPolicy{name: "maxpower", onTick: func(env *Env, s Snapshot) float64 {
		for srv := 0; srv < scn.Rack.NumServers; srv++ {
			for c := 0; c < scn.Rack.ServerParams.Cores; c++ {
				env.Rack.SetCoreFreq(rack.CoreRef{Server: srv, Core: c}, 2.0)
			}
		}
		return 0
	}}
}

func (p *stubPolicy) Name() string { return p.name }
func (p *stubPolicy) Start(env *Env, scn Scenario) error {
	return p.startErr
}
func (p *stubPolicy) Tick(env *Env, s Snapshot) float64 {
	p.ticks++
	if p.onTick != nil {
		return p.onTick(env, s)
	}
	return p.upsReq
}

func shortScenario() Scenario {
	scn := DefaultScenario()
	scn.DurationS = 60
	scn.BurstDurationS = 60
	scn.BatchDeadlineS = 50
	return scn
}

func TestScenarioValidate(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero duration", func(s *Scenario) { s.DurationS = 0 }},
		{"dt > duration", func(s *Scenario) { s.DtS = 1e6 }},
		{"10^13 ticks", func(s *Scenario) { s.DurationS, s.DtS = 1e13, 1 }},
		{"tick count overflows int", func(s *Scenario) { s.DurationS = 1e300 }},
		{"zero burst", func(s *Scenario) { s.BurstDurationS = 0 }},
		{"zero deadline", func(s *Scenario) { s.BatchDeadlineS = 0 }},
		{"bad fills", func(s *Scenario) { s.WorkFillMin = 0 }},
		{"fill order", func(s *Scenario) { s.WorkFillMin = 0.9; s.WorkFillMax = 0.5 }},
		{"zero reference", func(s *Scenario) { s.WorkReferenceS = 0 }},
		{"bad rack", func(s *Scenario) { s.Rack.NumServers = 0 }},
		{"bad breaker", func(s *Scenario) { s.Breaker.RatedPower = 0 }},
		{"bad ups", func(s *Scenario) { s.UPS.CapacityWh = 0 }},
		{"bad trace", func(s *Scenario) { s.Interactive.Base = 2 }},
	}
	for _, tc := range cases {
		scn := DefaultScenario()
		tc.mutate(&scn)
		if err := scn.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
		if _, err := Run(scn, &stubPolicy{name: "stub"}); err == nil {
			t.Errorf("%s: Run should reject invalid scenario", tc.name)
		}
	}
}

func TestBuildEnvBindsAllBatchCores(t *testing.T) {
	env, err := BuildEnv(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	cores := env.Rack.BatchCores()
	if n := len(env.Rack.BatchJobs()); n != len(cores) {
		t.Fatalf("%d jobs for %d batch cores", n, len(cores))
	}
	if len(cores) != 64 {
		t.Fatalf("batch cores = %d, want 64", len(cores))
	}
	// Jobs carry different fills (work sizes) deterministically.
	work := func(env *Env, i int) float64 { return env.Rack.BatchJobs()[i].ExportState().TotalWork }
	w0 := work(env, 0)
	w1 := work(env, 8) // same spec, next round
	if w0 == w1 {
		t.Fatal("fills should differ across cores of the same benchmark")
	}
	env2, err := BuildEnv(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if work(env2, 0) != w0 {
		t.Fatal("BuildEnv must be deterministic")
	}
}

func TestRunPropagatesStartError(t *testing.T) {
	p := &stubPolicy{name: "bad", startErr: errors.New("boom")}
	if _, err := Run(shortScenario(), p); err == nil {
		t.Fatal("Start error should propagate")
	}
}

func TestRunTicksAndSeriesLengths(t *testing.T) {
	p := &stubPolicy{name: "stub"}
	res, err := Run(shortScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	if p.ticks != 60 {
		t.Fatalf("policy ticked %d times, want 60", p.ticks)
	}
	s := res.Series
	n := len(s.Time)
	if n != 60 {
		t.Fatalf("series length %d, want 60", n)
	}
	for name, l := range map[string]int{
		"TotalW": len(s.TotalW), "CBW": len(s.CBW), "UPSW": len(s.UPSW),
		"PCbW": len(s.PCbW), "PBatchW": len(s.PBatchW),
		"FreqInter": len(s.FreqInter), "FreqBatch": len(s.FreqBatch), "SoC": len(s.SoC),
	} {
		if l != n {
			t.Fatalf("series %s length %d, want %d", name, l, n)
		}
	}
	if res.Policy != "stub" {
		t.Fatalf("policy name %q", res.Policy)
	}
	// Without a TargetReporter the target series are NaN.
	if !math.IsNaN(s.PCbW[0]) || !math.IsNaN(s.PBatchW[0]) {
		t.Fatal("non-reporting policy should record NaN targets")
	}
}

func TestEnergyConservationAcrossSources(t *testing.T) {
	// Whatever happens, CB energy + UPS energy == total rack energy
	// (while no outage).
	p := &stubPolicy{name: "stub", upsReq: 500}
	res, err := Run(shortScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Series.Time {
		total := res.Series.TotalW[i]
		split := res.Series.CBW[i] + res.Series.UPSW[i]
		if math.Abs(total-split) > 1e-6 {
			t.Fatalf("tick %d: total %v != CB %v + UPS %v", i, total, res.Series.CBW[i], res.Series.UPSW[i])
		}
	}
	if res.EnergyTotalWh <= 0 || res.EnergyCBWh <= 0 {
		t.Fatal("energy accounting missing")
	}
}

func TestUPSRequestHonored(t *testing.T) {
	p := &stubPolicy{name: "stub", upsReq: 400}
	res, err := Run(shortScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	// After the first tick the UPS should deliver ≈400 W (duty-quantized).
	mid := res.Series.UPSW[30]
	if mid < 300 || mid > 500 {
		t.Fatalf("UPS delivery %v, want ≈400", mid)
	}
	if res.UPSDischargedWh <= 0 {
		t.Fatal("no discharge recorded")
	}
}

func TestNegativeAndNaNUPSRequestsIgnored(t *testing.T) {
	p := &stubPolicy{name: "stub", onTick: func(env *Env, s Snapshot) float64 {
		if int(s.Now)%2 == 0 {
			return -100
		}
		return math.NaN()
	}}
	res, err := Run(shortScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.Series.UPSW {
		if u != 0 {
			t.Fatalf("tick %d: UPS delivered %v for invalid requests", i, u)
		}
	}
}

// overloadPolicy forces everything to peak so the breaker trips, then the
// engine must route power through the UPS and eventually black out.
func TestTripUPSCarryAndOutage(t *testing.T) {
	scn := DefaultScenario()
	scn.DurationS = 900
	scn.BurstDurationS = 900
	p := maxPowerPolicy(scn)
	res, err := Run(scn, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CBTrips == 0 {
		t.Fatal("full rack power at 1.4× rating must trip the breaker")
	}
	if res.UPSDoD < 0.95 {
		t.Fatalf("UPS DoD = %v, want near-full depletion carrying the rack", res.UPSDoD)
	}
	if res.OutageS <= 0 {
		t.Fatal("depleted UPS with open breaker must cause an outage")
	}
	// During outage ticks, frequencies are recorded as zero.
	sawZero := false
	for i := range res.Series.Time {
		if res.Series.FreqInter[i] == 0 && res.Series.TotalW[i] == 0 {
			sawZero = true
			break
		}
	}
	if !sawZero {
		t.Fatal("outage ticks should record zero frequency and power")
	}
}

func TestBreakerReclosesAfterOutage(t *testing.T) {
	// Same as above but long enough to see the reclose: after the
	// breaker cools (≤300 s), power returns.
	scn := DefaultScenario()
	scn.DurationS = 900
	scn.BurstDurationS = 900
	p := maxPowerPolicy(scn)
	res, err := Run(scn, p)
	if err != nil {
		t.Fatal(err)
	}
	// Find an outage tick followed later by a powered tick.
	firstOutage := -1
	recovered := false
	for i := range res.Series.Time {
		dark := res.Series.TotalW[i] == 0
		if dark && firstOutage < 0 {
			firstOutage = i
		}
		if firstOutage >= 0 && !dark && i > firstOutage {
			recovered = true
			break
		}
	}
	if firstOutage < 0 {
		t.Fatal("expected an outage")
	}
	if !recovered {
		t.Fatal("rack should re-power after the breaker recloses")
	}
	// Each individual outage window is bounded by the breaker's recovery
	// time (the total may span several trip/reclose cycles).
	var longest, cur float64
	for i := range res.Series.Time {
		if res.Series.TotalW[i] == 0 {
			cur += scn.DtS
			longest = math.Max(longest, cur)
		} else {
			cur = 0
		}
	}
	if longest > scn.Breaker.RecoveryTime+2 {
		t.Fatalf("longest outage window %v s exceeds breaker recovery time", longest)
	}
}

func TestBatchProgressOnlyWhilePowered(t *testing.T) {
	scn := shortScenario()
	p := &stubPolicy{name: "stub"}
	res, err := Run(scn, p)
	if err != nil {
		t.Fatal(err)
	}
	// Batch cores start at the floor frequency; jobs advance.
	for _, j := range res.Jobs {
		if j.Progress <= 0 && math.IsNaN(j.CompletionS) {
			t.Fatalf("job %s/%s made no progress", j.Name, j.Core)
		}
	}
	if res.JobsTotal != 64 {
		t.Fatalf("JobsTotal = %d", res.JobsTotal)
	}
}

func TestNormalizedTimeUse(t *testing.T) {
	r := &Result{MaxCompletionTimeS: 600}
	r.Scenario.BatchDeadlineS = 720
	if got := r.NormalizedTimeUse(); math.Abs(got-600.0/720.0) > 1e-12 {
		t.Fatalf("NormalizedTimeUse = %v", got)
	}
}

func TestInteractiveDemandStatsRecorded(t *testing.T) {
	res, err := Run(shortScenario(), &stubPolicy{name: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	if res.InteractiveDemand.Max <= 0 || res.InteractiveDemand.Mean <= 0 {
		t.Fatal("interactive demand stats missing")
	}
}

// reporterPolicy reports fixed targets to test CB tracking metrics.
type reporterPolicy struct {
	stubPolicy
	pcb float64
}

func (p *reporterPolicy) Targets(now float64) (float64, float64) { return p.pcb, 1000 }

func TestCBTrackingMetrics(t *testing.T) {
	p := &reporterPolicy{stubPolicy: stubPolicy{name: "rep"}, pcb: 1.0}
	// Absurdly low budget: every tick is over budget.
	res, err := Run(shortScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CBOverBudgetFrac < 0.99 {
		t.Fatalf("over-budget fraction %v, want ≈1", res.CBOverBudgetFrac)
	}
	if res.CBTrackingErrorW <= 0 {
		t.Fatal("tracking error should be positive")
	}
	if math.IsNaN(res.Series.PCbW[0]) {
		t.Fatal("reporter targets should be recorded")
	}
	// Interactive cores run at peak by default (rack construction).
	if res.Series.FreqInter[0] != 1 {
		t.Fatalf("interactive norm freq %v, want 1", res.Series.FreqInter[0])
	}
	_ = cpu.Interactive // document the class under test
}

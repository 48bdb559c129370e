package baseline

import (
	"io"
	"math"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

func run(t *testing.T, v Variant, scn sim.Scenario) *sim.Result {
	t.Helper()
	res, err := sim.Run(scn, New(v))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVariantNames(t *testing.T) {
	if SGCT.String() != "SGCT" || SGCTV1.String() != "SGCT-V1" || SGCTV2.String() != "SGCT-V2" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant should print")
	}
	if New(SGCT).Name() != "SGCT" {
		t.Fatal("policy name")
	}
}

func TestStartRejectsNilEnv(t *testing.T) {
	if err := New(SGCT).Start(nil, sim.DefaultScenario()); err == nil {
		t.Fatal("nil env should error")
	}
}

// Paper Fig. 5: uncontrolled sprinting trips the breaker within the first
// overload window, the UPS then carries the rack and is drained, and the
// rack eventually blacks out.
func TestSGCTTripsAndDrainsUPS(t *testing.T) {
	res := run(t, SGCT, sim.DefaultScenario())
	if res.CBTrips == 0 {
		t.Fatal("SGCT must trip the breaker (that is its defect)")
	}
	// First trip within the first overload window (~150 s).
	firstTrip := math.Inf(1)
	for i := 1; i < len(res.Series.Time); i++ {
		if res.Series.CBW[i] == 0 && res.Series.CBW[i-1] > 0 && res.Series.TotalW[i] > 0 {
			firstTrip = res.Series.Time[i]
			break
		}
	}
	if firstTrip > 160 {
		t.Fatalf("first trip at %v s, want within the first overload window", firstTrip)
	}
	if res.UPSDoD < 0.99 {
		t.Fatalf("UPS DoD %v, want full drain", res.UPSDoD)
	}
	if res.OutageS == 0 {
		t.Fatal("SGCT run should suffer an outage")
	}
	// Paper: UPS runs out around the 10–11th minute.
	depleted := math.Inf(1)
	for i := range res.Series.Time {
		if res.Series.SoC[i] <= 0.001 {
			depleted = res.Series.Time[i]
			break
		}
	}
	if depleted < 8*60 || depleted > 12*60 {
		t.Fatalf("UPS depleted at %v s, want in the 8–12 minute band", depleted)
	}
}

// Paper Section VII-B: the idealized variants never trip and never black
// out; their UPS is used as a backup during CB recovery only.
func TestV1V2SafeAndBoundedDoD(t *testing.T) {
	for _, v := range []Variant{SGCTV1, SGCTV2} {
		res := run(t, v, sim.DefaultScenario())
		if res.CBTrips != 0 {
			t.Fatalf("%v tripped %d times", v, res.CBTrips)
		}
		if res.OutageS != 0 {
			t.Fatalf("%v outage %v s", v, res.OutageS)
		}
		if res.UPSDoD < 0.2 || res.UPSDoD > 0.55 {
			t.Fatalf("%v DoD %v, want moderate backup use (paper ≈31%%)", v, res.UPSDoD)
		}
	}
}

// Paper Fig. 6(b)/(c): V1/V2 hold the total power nearly flat at the
// constant sprint budget.
func TestV1TotalPowerNearlyFlat(t *testing.T) {
	res := run(t, SGCTV1, sim.DefaultScenario())
	budget := 1.25 * res.Scenario.Breaker.RatedPower
	var worst float64
	for i, tot := range res.Series.TotalW {
		if res.Series.Time[i] < 10 {
			continue // ramp-in
		}
		dev := math.Abs(tot-budget) / budget
		if dev > worst {
			worst = dev
		}
	}
	// Tolerance covers one tick of batch phase-transition utilization
	// drift between oracle clamps.
	if worst > 0.06 {
		t.Fatalf("V1 total power deviates %v from flat budget", worst)
	}
}

// V1/V2 discharge the UPS only while the breaker recovers (paper: "only
// discharge UPS after the CB can no longer be overloaded").
func TestV1UPSOnlyDuringRecovery(t *testing.T) {
	res := run(t, SGCTV1, sim.DefaultScenario())
	for i, tm := range res.Series.Time {
		phase := math.Mod(tm, 450)
		inOverload := phase >= 5 && phase < 150 // skip the boundary tick
		if inOverload && res.Series.UPSW[i] > 100 {
			t.Fatalf("t=%v: %v W of UPS discharge during an overload phase", tm, res.Series.UPSW[i])
		}
	}
}

// Paper Fig. 7: SGCT-V2 runs interactive near peak at the cost of batch;
// SGCT-V1 favors the (higher-utilization) batch cores.
func TestClassPriorityOrdering(t *testing.T) {
	scn := sim.DefaultScenario()
	v1 := run(t, SGCTV1, scn)
	v2 := run(t, SGCTV2, scn)
	if !(v2.AvgFreqInter > v1.AvgFreqInter) {
		t.Fatalf("interactive: V2 %v should exceed V1 %v", v2.AvgFreqInter, v1.AvgFreqInter)
	}
	if !(v1.AvgFreqBatch > v2.AvgFreqBatch) {
		t.Fatalf("batch: V1 %v should exceed V2 %v", v1.AvgFreqBatch, v2.AvgFreqBatch)
	}
	if v2.AvgFreqInter < 0.9 {
		t.Fatalf("V2 interactive %v, want near peak (paper 0.94)", v2.AvgFreqInter)
	}
	if v1.AvgFreqBatch < 0.7 {
		t.Fatalf("V1 batch %v, want high (paper 0.91)", v1.AvgFreqBatch)
	}
}

// The idealized variants still meet the default deadlines (paper Fig. 8a).
func TestV1V2MeetDefaultDeadlines(t *testing.T) {
	for _, v := range []Variant{SGCTV1, SGCTV2} {
		res := run(t, v, sim.DefaultScenario())
		if res.DeadlineMisses != 0 {
			t.Fatalf("%v missed %d deadlines", v, res.DeadlineMisses)
		}
	}
}

// No core is starved: with the aging rotation every batch job progresses.
func TestNoBatchCoreStarvation(t *testing.T) {
	res := run(t, SGCTV2, sim.DefaultScenario())
	for _, j := range res.Jobs {
		if !math.IsNaN(j.CompletionS) {
			continue
		}
		if j.Progress < 0.2 {
			t.Fatalf("job %s/%s starved at progress %v", j.Name, j.Core, j.Progress)
		}
	}
}

// Targets are reported for the Fig. 6 budget curve.
func TestTargetsReported(t *testing.T) {
	p := New(SGCTV1)
	res, err := sim.Run(sim.DefaultScenario(), p)
	if err != nil {
		t.Fatal(err)
	}
	sawOverload, sawRecovery := false, false
	for _, pcb := range res.Series.PCbW {
		switch {
		case math.Abs(pcb-4000) < 1:
			sawOverload = true
		case math.Abs(pcb-3200) < 1:
			sawRecovery = true
		}
	}
	if !sawOverload || !sawRecovery {
		t.Fatal("phase budget curve not recorded")
	}
	pcb, pbatch := p.Targets(0)
	if pcb != 4000 || !math.IsNaN(pbatch) {
		t.Fatalf("Targets = %v, %v", pcb, pbatch)
	}
}

// Determinism across runs.
func TestBaselineDeterministic(t *testing.T) {
	a := run(t, SGCTV2, sim.DefaultScenario())
	b := run(t, SGCTV2, sim.DefaultScenario())
	if a.UPSDoD != b.UPSDoD || a.AvgFreqBatch != b.AvgFreqBatch {
		t.Fatal("baseline not deterministic")
	}
}

// TestTracedTickZeroAlloc: the baselines' control period is the tick, so a
// traced run emits a record every tick; the policy refills one owned
// record and reuses its core-ranking buffer, and the sink encodes into a
// reused buffer, so a traced tick allocates nothing.
func TestTracedTickZeroAlloc(t *testing.T) {
	for _, v := range []Variant{SGCT, SGCTV1, SGCTV2} {
		t.Run(v.String(), func(t *testing.T) {
			scn := sim.DefaultScenario()
			env, err := sim.BuildEnv(scn)
			if err != nil {
				t.Fatal(err)
			}
			sink := telemetry.NewDecisionSink(io.Discard)
			env.Decisions = sink
			p := New(v)
			if err := p.Start(env, scn); err != nil {
				t.Fatal(err)
			}
			snap := sim.Snapshot{Dt: scn.DtS, UPSSoC: env.UPS.SoC()}
			now := 0.0
			tick := func() {
				snap.Now = now
				snap.MeasuredTotalW = env.Rack.MeasuredPower()
				snap.CBPowerW = env.Rack.TruePower()
				p.Tick(env, snap)
				env.Rack.AdvanceBatch(scn.DtS, now)
				now += scn.DtS
			}
			for i := 0; i < 60; i++ {
				tick()
			}
			if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
				t.Fatalf("traced %s tick allocates %.2f times, want 0", v, allocs)
			}
			if sink.Err() != nil || sink.Count() != 261 {
				t.Fatalf("sink wrote %d records (err %v), want one per tick (261)", sink.Count(), sink.Err())
			}
		})
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
)

// Chaos testing: randomized multi-fault storms. Each scenario draws a
// seeded schedule of 1-4 overlapping faults — sensor, actuator and
// component failures alike — and the hardened controller must finish the
// full 15-minute sprint with zero breaker trips, zero outage seconds and no
// panic. The schedules are deterministic per seed, so a failing storm
// reproduces exactly.
//
// Two physical limits shape the generator:
//
//   - actuator-stuck targets a single server, never the whole rack: a rack
//     whose every core is frozen at sprint frequency cannot shed power by
//     any control action, so no controller could keep it safe;
//   - monitor-bias avoids the weakly-negative dead band (roughly −0.3..0):
//     a small steady under-read is below any plausible spike/slew
//     detection threshold yet bounded by the UPS trim authority, so it is
//     survivable but indistinguishable from sensor noise. Strong negative
//     bias (caught by the slew check) and any positive bias (conservative)
//     are both fair game.
func randomStorm(rng *rand.Rand, numServers int) faults.Plan {
	n := 1 + rng.Intn(4)
	var plan faults.Plan
	for i := 0; i < n; i++ {
		f := faults.Fault{
			OnsetS:    float64(rng.Intn(700)),
			DurationS: 20 + float64(rng.Intn(380)),
		}
		// Single-rack storms draw only rack- and server-scoped kinds;
		// link-scoped faults need a cluster with a control link (the
		// hier package soaks those).
		kinds := append(faults.KindsForScope(faults.ScopeRack), faults.KindsForScope(faults.ScopeServer)...)
		f.Kind = kinds[rng.Intn(len(kinds))]
		switch f.Kind {
		case faults.MonitorBias:
			if rng.Intn(2) == 0 {
				f.Severity = -(0.35 + 0.25*rng.Float64()) // strong: slew-detectable
			} else {
				f.Severity = 0.1 + 0.5*rng.Float64() // over-read: conservative
			}
		case faults.MeasurementDelay:
			f.Severity = 1 + float64(rng.Intn(8))
		case faults.ActuatorLag:
			f.Severity = 0.1 + 0.6*rng.Float64()
			if rng.Intn(2) == 0 {
				f.Server = faults.AllServers
			} else {
				f.Server = rng.Intn(numServers)
			}
		case faults.ActuatorStuck:
			f.Server = rng.Intn(numServers)
		case faults.ServerCrash:
			f.Server = rng.Intn(numServers)
		case faults.UPSGaugeBias:
			f.Severity = -0.8 + 1.6*rng.Float64()
		case faults.ControllerCrash:
			// Restart delay 0-3 s. A dead controller holds the last
			// commanded frequencies, which mid-overload burn trip budget
			// at ~0.56 o-sec/s with no supervisor watching; a few seconds
			// is survivable on any schedule, tens of seconds is not a
			// fault any controller could be safe under.
			f.Severity = 3 * rng.Float64()
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

func TestChaosStormsNeverTripHardenedSprintCon(t *testing.T) {
	const storms = 25
	n := storms
	if testing.Short() {
		n = 6
	}
	scnBase := sim.DefaultScenario()
	var jobs []sim.Job
	plans := make(map[string]faults.Plan, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		scn := scnBase
		scn.Interactive.Seed = int64(i + 1)
		scn.Faults = randomStorm(rng, scn.Rack.NumServers)
		if err := scn.Validate(); err != nil {
			t.Fatalf("storm %d: generated invalid scenario: %v", i, err)
		}
		key := fmt.Sprintf("storm-%02d", i)
		plans[key] = scn.Faults
		jobs = append(jobs, sim.Job{Key: key, Scenario: scn, Policy: New(DefaultConfig())})
	}
	results, err := sim.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		res := results[j.Key]
		if res == nil {
			t.Fatalf("%s: missing result", j.Key)
		}
		if res.CBTrips != 0 || res.OutageS != 0 {
			t.Errorf("%s: trips=%d outage=%.0fs under %v",
				j.Key, res.CBTrips, res.OutageS, plans[j.Key].Faults)
		}
	}
}

// TestChaosStormDeterminism pins that a storm re-run with the same seed and
// fault schedule reproduces the exact same headline metrics, so any chaos
// failure is replayable.
func TestChaosStormDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	scn := sim.DefaultScenario()
	scn.Faults = randomStorm(rng, scn.Rack.NumServers)
	a, err := sim.Run(scn, New(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(scn, New(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if a.CBTrips != b.CBTrips || a.OutageS != b.OutageS ||
		a.UPSDoD != b.UPSDoD || a.AvgFreqBatch != b.AvgFreqBatch {
		t.Fatalf("identical storm runs diverged: %+v vs %+v", a, b)
	}
}

package hier

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
)

// Chaos and soak testing for the control link (make chaos / make soak):
// randomized seeded network-fault storms — loss, delay, duplication,
// partitions, coordinator crashes — composed with the rack-scoped storms the
// core package soaks. Whatever the storm, the invariants the lease
// discipline exists for must hold: zero rack breaker trips, zero SoC-floor
// breaches, zero feeder-breaker trips. Schedules are deterministic per seed,
// so a failing storm reproduces exactly.

// randomNetworkStorm draws 2–5 link-scoped faults. Severities cover the
// ranges the transport models: loss/dup probabilities, delay spreads wide
// enough to reorder several refresh rounds, partitions of one rack or the
// whole cluster, and coordinator outages from sub-TTL blips to over a
// minute.
func randomNetworkStorm(rng *rand.Rand, numRacks int) []faults.Fault {
	n := 2 + rng.Intn(4)
	kinds := faults.KindsForScope(faults.ScopeLink)
	var out []faults.Fault
	for i := 0; i < n; i++ {
		f := faults.Fault{
			Kind:      kinds[rng.Intn(len(kinds))],
			OnsetS:    float64(rng.Intn(600)),
			DurationS: 30 + float64(rng.Intn(400)),
		}
		switch f.Kind {
		case faults.LinkLoss:
			f.Severity = 0.05 + 0.55*rng.Float64()
		case faults.LinkDelay:
			f.Severity = 1 + float64(rng.Intn(6))
		case faults.LinkDup:
			f.Severity = 0.05 + 0.75*rng.Float64()
		case faults.LinkPartition:
			f.Severity = 1
			if rng.Intn(3) == 0 {
				f.Server = faults.AllRacks
			} else {
				f.Server = rng.Intn(numRacks)
			}
		case faults.CoordinatorCrash:
			f.Severity = 1
			f.DurationS = 5 + float64(rng.Intn(120))
		}
		out = append(out, f)
	}
	return out
}

func assertLinkedSafe(t *testing.T, res *RowResult, plan []faults.Fault, label string) {
	t.Helper()
	if res.CBTrips != 0 {
		t.Errorf("%s: %d rack breaker trips under %v", label, res.CBTrips, plan)
	}
	if res.FeederTrips != 0 {
		t.Errorf("%s: %d feeder trips under %v", label, res.FeederTrips, plan)
	}
	for i, inv := range res.Invariants {
		if inv.SoCFloor != 0 {
			t.Errorf("%s: rack %d SoC-floor breaches %d under %v", label, i, inv.SoCFloor, plan)
		}
	}
}

func TestChaosNetworkStormsStaySafe(t *testing.T) {
	const storms = 8
	n := storms
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("storm-%02d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(90_000 + 7919*i)))
			cfg := rowConfig()
			cfg.Scenario.Interactive.Seed = rng.Int63()
			cfg.Seed = rng.Int63()
			cfg.Scenario.Faults.Faults = randomNetworkStorm(rng, cfg.Rows[0].Racks)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("generated invalid config: %v", err)
			}
			res, err := RunLinked(cfg)
			if err != nil {
				t.Fatalf("run failed under %v: %v", cfg.Scenario.Faults.Faults, err)
			}
			assertLinkedSafe(t, res.Rows[0], cfg.Scenario.Faults.Faults, "chaos")
		})
	}
}

// TestChaosNetworkStormDeterminism pins that a network storm re-run with the
// same seeds reproduces the exact same headline metrics and link accounting,
// so any chaos failure is replayable.
func TestChaosNetworkStormDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cfg := rowConfig()
	cfg.Seed = 99
	cfg.Scenario.Faults.Faults = randomNetworkStorm(rng, cfg.Rows[0].Racks)
	a, b := linkedRow(t, cfg), linkedRow(t, cfg)
	if a.CBTrips != b.CBTrips || a.FeederExceedFrac != b.FeederExceedFrac ||
		a.DegradedS() != b.DegradedS() || a.Transport != b.Transport || a.Coord != b.Coord {
		t.Fatalf("identical storm runs diverged:\na %+v / %+v\nb %+v / %+v",
			a.Transport, a.Coord, b.Transport, b.Coord)
	}
}

func soakRuns() int {
	if s := os.Getenv("SOAK_RUNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 2
	}
	return 4
}

// Soak: network storms composed with rack-local controller crashes, run
// alternately with per-rack checkpoint stores (restore path) and without
// (fail-safe path). The combination exercises the full degraded-mode ladder:
// leases expiring mid-partition, crashes mid-degraded, re-syncs after heals —
// and must stay trip- and SoC-breach-free throughout.
func TestSoakLinkedStormsStaySafe(t *testing.T) {
	n := soakRuns()
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("run-%03d", i), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(130_000 + 104_729*i)))
			cfg := rowConfig()
			cfg.Scenario.Interactive.Seed = rng.Int63()
			cfg.Seed = rng.Int63()
			plan := randomNetworkStorm(rng, cfg.Rows[0].Racks)
			plan = append(plan, faults.Fault{
				Kind:      faults.ControllerCrash,
				OnsetS:    float64(rng.Intn(700)),
				DurationS: 10,
				Severity:  3 * rng.Float64(),
			})
			cfg.Scenario.Faults.Faults = plan
			if i%2 == 0 {
				cfg.RackOptions = func(_, _ int) sim.RunOptions {
					return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}
				}
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("generated invalid config: %v", err)
			}
			res, err := RunLinked(cfg)
			if err != nil {
				t.Fatalf("run failed under %v: %v", plan, err)
			}
			assertLinkedSafe(t, res.Rows[0], plan, fmt.Sprintf("soak (checkpointed=%v)", i%2 == 0))
		})
	}
}

// Package cluster runs SprintCon on a group of racks sharing a
// data-center feeder with static overload phase offsets — the scale the
// paper motivates ("the sprinting power can consume the headroom in the
// data-center level power budget", Section I) but leaves to future work.
// Each rack runs its own SprintCon instance against its own breaker and
// UPS; the only coordination is the *phase offset* of each rack's periodic
// overload schedule.
//
// Without coordination every rack overloads its breaker at the same time
// and the feeder sees the full 1.25× aggregate peak. Run staggers static
// offsets by cycle/N, keeping at most ⌈N·150/450⌉ racks in an overload
// phase at once (experiment E12). The live counterpart — the same packing
// driven over the lease-based control link, surviving message loss and
// partitions — is internal/hier's RunLinked, where a feeder group is a
// one-row building.
//
// Racks are independent seeded simulations, so Run executes them on the
// sim worker pool (bounded by GOMAXPROCS) and assembles results in rack
// order — output is bit-identical to a serial run (Config.Serial forces
// one for benchmark comparisons). Each rack's interactive-trace, rack and
// fault-plan seeds are offset by the rack index so the racks experience
// independent traffic, noise and fault timings.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/alloc"
	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

// Config describes the rack group.
type Config struct {
	// NumRacks is the group size, in [1, MaxRacks].
	NumRacks int
	// Scenario is the per-rack scenario; rack i runs it with the
	// interactive, rack and fault-plan seeds offset by i so the racks
	// see distinct traffic, measurement noise and fault timings.
	Scenario sim.Scenario
	// Stagger spreads the racks' overload phases across the cycle.
	Stagger bool
	// FeederBudgetW is the shared feeder capacity (W) for the group; the
	// result reports how often the aggregate exceeds it. Zero disables
	// the check.
	FeederBudgetW float64
	// SprintCon tunes the per-rack policy.
	SprintCon core.Config
	// Serial runs the racks one at a time (a one-worker pool). Results,
	// and a failing or panicking rack's error, are identical either way;
	// the knob exists so the benchmark harness can measure the parallel
	// speedup.
	Serial bool
}

// MaxRacks bounds NumRacks: each rack is a full seeded simulation holding
// its series in memory, and a group beyond this size indicates a
// misconfigured sweep rather than a plausible feeder group.
const MaxRacks = 1024

// DefaultConfig returns four paper racks behind a feeder provisioned at
// the sum of the breaker ratings plus one rack's overload bonus — enough
// for staggered sprinting, not for synchronized sprinting.
func DefaultConfig() Config {
	scn := sim.DefaultScenario()
	return Config{
		NumRacks:      4,
		Scenario:      scn,
		Stagger:       true,
		FeederBudgetW: 4*scn.Breaker.RatedPower + 0.25*scn.Breaker.RatedPower*2,
		SprintCon:     core.DefaultConfig(),
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	if c.NumRacks <= 0 {
		return errors.New("cluster: NumRacks must be positive")
	}
	if c.NumRacks > MaxRacks {
		return fmt.Errorf("cluster: NumRacks %d exceeds MaxRacks %d", c.NumRacks, MaxRacks)
	}
	if math.IsNaN(c.FeederBudgetW) || math.IsInf(c.FeederBudgetW, 0) {
		return fmt.Errorf("cluster: FeederBudgetW is %g; the feeder budget must be finite", c.FeederBudgetW)
	}
	if c.FeederBudgetW < 0 {
		return errors.New("cluster: FeederBudgetW must be non-negative")
	}
	return c.Scenario.Validate()
}

// Result aggregates a static-offset run.
type Result struct {
	Racks []*sim.Result // per-rack results, index = rack id

	// AggregateW is the feeder draw per tick (sum of rack CB draws; UPS
	// discharge is rack-local and does not load the feeder).
	AggregateW []float64
	// PeakW and MeanW summarize the feeder draw.
	PeakW, MeanW float64
	// OverBudgetFrac is the fraction of ticks above the feeder budget
	// (0 when no budget is configured).
	OverBudgetFrac float64
	// Safety rollups summed across racks: breaker trips (count),
	// interactive-service outage (s), and batch deadline misses (count).
	CBTrips        int
	OutageS        float64
	DeadlineMisses int
}

// rackJob builds rack i's scenario and policy: the per-rack seed offsets
// and the staggered overload phase.
func rackJob(cfg Config, i int) (sim.Scenario, sim.Policy) {
	scn := cfg.Scenario
	scn.Interactive.Seed += int64(i)
	scn.Rack.Seed += int64(i)
	// Fault-plan seed too: without this offset every rack replays the
	// same jittered fault timings, a synchronized failure wave no real
	// deployment exhibits.
	scn.Faults.Seed += int64(i)

	pcfg := cfg.SprintCon
	acfg := alloc.DefaultConfig(scn.Breaker.RatedPower, scn.Breaker.TripBudget())
	if pcfg.AllocOverride != nil {
		acfg = *pcfg.AllocOverride
	}
	if cfg.Stagger {
		cycle := acfg.OverloadS + acfg.RecoveryS
		acfg.PhaseOffsetS = float64(i) * cycle / float64(cfg.NumRacks)
	}
	pcfg.AllocOverride = &acfg
	return scn, core.New(pcfg)
}

// Run simulates every rack (concurrently unless Config.Serial) and
// aggregates the feeder draw. Results are deterministic: rack i's result
// depends only on the configuration and i, never on scheduling.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	jobs := make([]sim.Job, cfg.NumRacks)
	for i := range jobs {
		scn, p := rackJob(cfg, i)
		jobs[i] = sim.Job{Key: fmt.Sprintf("rack%d", i), Scenario: scn, Policy: p}
	}
	workers := 0 // GOMAXPROCS
	if cfg.Serial {
		workers = 1
	}
	racks, err := sim.RunManyOrdered(jobs, workers)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	out := &Result{Racks: racks}
	for i, res := range racks {
		out.CBTrips += res.CBTrips
		out.OutageS += res.OutageS
		out.DeadlineMisses += res.DeadlineMisses

		if out.AggregateW == nil {
			out.AggregateW = make([]float64, len(res.Series.CBW))
		}
		if len(res.Series.CBW) != len(out.AggregateW) {
			return nil, fmt.Errorf("cluster: rack %d series length mismatch", i)
		}
		for t, w := range res.Series.CBW {
			out.AggregateW[t] += w
		}
	}
	out.PeakW = stats.Max(out.AggregateW)
	out.MeanW = stats.Mean(out.AggregateW)
	if cfg.FeederBudgetW > 0 {
		out.OverBudgetFrac = stats.FracAbove(out.AggregateW, cfg.FeederBudgetW)
	}
	return out, nil
}

// Package cluster coordinates SprintCon across multiple racks sharing a
// data-center feeder — the scale the paper motivates ("the sprinting power
// can consume the headroom in the data-center level power budget",
// Section I) but leaves to future work. Each rack runs its own SprintCon
// instance against its own breaker and UPS; the coordinator's levers are
// the *phase offset* of each rack's periodic overload schedule and, in
// linked mode, the per-tick lease budget each rack may spend.
//
// Without coordination every rack overloads its breaker at the same time
// and the feeder sees the full 1.25× aggregate peak. Run staggers static
// offsets by cycle/N, keeping at most ⌈N·150/450⌉ racks in an overload
// phase at once; RunLinked drives the same packing live over the
// lease-based control link (package link), surviving message loss and
// partitions. internal/hier stacks row and building feeders above this
// package, running one linked cluster per row feeder.
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
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/link"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
	"sprintcon/internal/telemetry"
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
	// Stop, when non-nil, cancels the run once the channel closes:
	// RunLinked polls it between lock-step ticks (so cancellation lands
	// within one tick), takes a final coherent checkpoint when Checkpoint
	// is configured, and returns sim.ErrCanceled.
	Stop <-chan struct{}
	// Checkpoint, when non-nil, captures coherent row snapshots during
	// RunLinked: every rack's full control+plant state at the same tick
	// boundary, every EveryS simulated seconds (see LinkedCheckpoint).
	Checkpoint *LinkedCheckpoint
	// Resume, when non-nil, resumes RunLinked from a coherent snapshot
	// set — one checkpoint.Snapshot per rack, all at the same step, as a
	// LinkedCheckpoint sink previously received. The plant and controller
	// of every rack restore bit-identically; the coordinator comes up
	// through its crash-restart path (soft-state wipe, heartbeat version
	// recovery), so the link re-syncs exactly as it would after a real
	// coordinator restart. The Result covers only the resumed window
	// (StartStep onward).
	Resume []*checkpoint.Snapshot
	// Link configures the coordinator↔rack control link (RunLinked).
	Link LinkConfig
}

// LinkedCheckpoint configures coherent row snapshots during RunLinked.
type LinkedCheckpoint struct {
	// EveryS is the capture cadence in simulated seconds (≥ one tick).
	// The first capture lands one cadence after the run (or resume)
	// starts; a cancellation through Config.Stop always captures a final
	// set before returning, so a drain loses at most the canceled tick.
	EveryS float64
	// Sink receives each capture on the coordinating goroutine: one
	// snapshot per rack, all at the same Step. It must return quickly —
	// the whole row waits on it. Persisting the set atomically (all racks
	// or none) is the sink's job; cmd/sprintd writes one framed file per
	// row for exactly that reason.
	Sink func(snaps []*checkpoint.Snapshot)
}

// LinkConfig enables and tunes the lease-based control link of RunLinked
// (DESIGN.md §12). The zero value leaves the cluster in the static
// phase-offset mode of Run.
type LinkConfig struct {
	// Enabled turns the link on; Run ignores it, RunLinked requires it.
	Enabled bool
	// Protocol holds the lease/heartbeat timing parameters. The zero value
	// takes link.DefaultConfig with the overload schedule copied from the
	// allocator configuration; a non-zero value must agree with that
	// schedule, or the coordinator's slot arithmetic would describe a
	// different square wave than the racks run.
	Protocol link.Config
	// Seed drives the transport's fault randomness (loss, delay,
	// duplication draws).
	Seed int64
	// NaiveTrustLastGrant selects the baseline client that ignores lease
	// expiry and keeps sprinting on the last grant it ever heard — the
	// unsafe strawman experiment E19 measures against.
	NaiveTrustLastGrant bool
	// Metrics, when non-nil, receives the link instruments (grants
	// sent/lost, degraded-mode seconds, re-sync count, lease age).
	Metrics *telemetry.Registry
	// RackOptions, when non-nil, supplies per-rack run options — the hook
	// for per-rack checkpoint stores in crash/restore tests.
	RackOptions func(rack int) sim.RunOptions
	// Obs, when non-nil, is the cluster's observability plane: RunLinked
	// attaches one plane per rack (spans, rollups, detectors) and the
	// coordinator's, all merged through obs.Cluster. It must hold at
	// least NumRacks rack planes.
	Obs *obs.Cluster
	// OnTick, when non-nil, is called on the coordinating goroutine at the
	// end of every lock-step tick with the step index, the simulated time
	// and that tick's feeder aggregate draw (W) — the live-progress hook
	// the hierarchical runner and the sprintd service use. It must return
	// quickly: the whole cluster waits on it.
	OnTick func(step int, nowS, aggregateW float64)
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
	if c.Checkpoint != nil {
		if !c.Link.Enabled {
			return errors.New("cluster: Checkpoint requires Link.Enabled (coherent row snapshots are a linked-run feature)")
		}
		if c.Checkpoint.EveryS < c.Scenario.DtS {
			return fmt.Errorf("cluster: Checkpoint.EveryS %g s is below the tick %g s", c.Checkpoint.EveryS, c.Scenario.DtS)
		}
		if c.Checkpoint.Sink == nil {
			return errors.New("cluster: Checkpoint.Sink must be set")
		}
	}
	if c.Resume != nil {
		if !c.Link.Enabled {
			return errors.New("cluster: Resume requires Link.Enabled")
		}
		if len(c.Resume) != c.NumRacks {
			return fmt.Errorf("cluster: Resume holds %d snapshots for %d racks", len(c.Resume), c.NumRacks)
		}
		for i, sp := range c.Resume {
			if sp == nil {
				return fmt.Errorf("cluster: Resume snapshot for rack %d is nil", i)
			}
			if sp.Step != c.Resume[0].Step {
				return fmt.Errorf("cluster: Resume snapshots are incoherent: rack %d at step %d, rack 0 at step %d",
					i, sp.Step, c.Resume[0].Step)
			}
		}
	}
	if !c.Link.Enabled {
		return c.Scenario.Validate()
	}
	// Linked run: the scenario's fault plan may carry link-scoped faults,
	// which the per-rack validation rejects — split first and validate each
	// half against its consumer.
	rackPlan, linkPlan := c.Scenario.Faults.Split()
	scn := c.Scenario
	scn.Faults = rackPlan
	if err := scn.Validate(); err != nil {
		return err
	}
	if err := linkPlan.ValidateForCluster(c.NumRacks, c.Scenario.Rack.NumServers); err != nil {
		return err
	}
	_, ccfg, err := c.linkSetup()
	if err != nil {
		return err
	}
	return ccfg.Validate()
}

// allocConfig returns the per-rack allocator configuration the policies will
// run (the override, or the default for the scenario's breaker).
func (c Config) allocConfig() alloc.Config {
	if c.SprintCon.AllocOverride != nil {
		return *c.SprintCon.AllocOverride
	}
	return alloc.DefaultConfig(c.Scenario.Breaker.RatedPower, c.Scenario.Breaker.TripBudget())
}

// linkSetup resolves the effective link protocol and coordinator
// configuration: protocol defaults filled from the allocator schedule, and
// the slot capacity K = ⌊(budget − N·rated) / bonus⌋ the feeder headroom
// funds, where bonus = rated·(degree−1) is one rack's overload surcharge.
func (c Config) linkSetup() (link.Config, link.CoordConfig, error) {
	acfg := c.allocConfig()
	// The slot-capacity derivation below divides by the overload bonus
	// rated·(degree−1); validate the allocator config first so a degenerate
	// override (OverloadDegree ≤ 1 ⇒ bonus ≤ 0) reports its real cause
	// instead of a misleading SlotCapacity error from int(±Inf).
	if err := acfg.Validate(); err != nil {
		return link.Config{}, link.CoordConfig{}, fmt.Errorf("cluster: allocator config: %w", err)
	}
	proto := c.Link.Protocol
	if proto == (link.Config{}) {
		proto = link.DefaultConfig()
		proto.OverloadS, proto.CycleS = 0, 0
	}
	if proto.OverloadS == 0 && proto.CycleS == 0 {
		proto.OverloadS = acfg.OverloadS
		proto.CycleS = acfg.OverloadS + acfg.RecoveryS
	}
	proto.TrustLastGrant = c.Link.NaiveTrustLastGrant
	if proto.OverloadS != acfg.OverloadS || proto.CycleS != acfg.OverloadS+acfg.RecoveryS {
		return proto, link.CoordConfig{}, fmt.Errorf(
			"cluster: link schedule (%g s overload / %g s cycle) disagrees with the allocator's (%g / %g); the coordinator's slot packing must describe the schedule the racks run",
			proto.OverloadS, proto.CycleS, acfg.OverloadS, acfg.OverloadS+acfg.RecoveryS)
	}
	if err := proto.Validate(); err != nil {
		return proto, link.CoordConfig{}, err
	}
	if c.FeederBudgetW <= 0 {
		return proto, link.CoordConfig{}, errors.New("cluster: a linked run needs a positive FeederBudgetW; the slot capacity is derived from it")
	}
	rated := c.Scenario.Breaker.RatedPower
	bonus := rated * (acfg.OverloadDegree - 1)
	// Floor with a tolerance: a budget assembled as N·rated + K·bonus can
	// land a hair under the exact product in floats, and plain truncation
	// would then fund K−1 slots — enough to fail the coordinator's packing
	// check for a budget that is, by construction, sufficient.
	k := int((c.FeederBudgetW-float64(c.NumRacks)*rated)/bonus + 1e-9)
	ccfg := link.CoordConfig{Link: proto, NumRacks: c.NumRacks, SlotCapacity: k}
	return proto, ccfg, nil
}

// Result aggregates a coordinated run.
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

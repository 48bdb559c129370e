package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"sprintcon/internal/hier"
	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

// runSpec is the subset of sprintd's RunSpec (POST /api/v1/runs) the
// workloads send, with the service's JSON field names.
type runSpec struct {
	Mode        string          `json:"mode,omitempty"`
	Rows        int             `json:"rows,omitempty"`
	RacksPerRow int             `json:"racks_per_row,omitempty"`
	DurationS   float64         `json:"duration_s,omitempty"`
	Seed        int64           `json:"seed,omitempty"`
	LinkSeed    int64           `json:"link_seed,omitempty"`
	Scenario    json.RawMessage `json:"scenario,omitempty"`
}

// config resolves the spec into the hier.Config sprintd builds for it,
// step for step as RunSpec.config does in cmd/sprintd (which a benchmark
// cannot import: it is a main package). mirror_test.go holds the two
// together by comparing summaries.
func (s runSpec) config() (hier.Config, error) {
	c := hier.Config{
		Scenario:  sim.DefaultScenario(),
		SprintCon: hier.DefaultConfig().SprintCon,
		Seed:      s.LinkSeed,
	}
	if len(s.Scenario) > 0 {
		scn, err := sim.ScenarioFromJSON(bytes.NewReader(s.Scenario))
		if err != nil {
			return c, fmt.Errorf("scenario: %w", err)
		}
		c.Scenario = scn
	}
	if s.DurationS > 0 {
		c.Scenario.DurationS = s.DurationS
	}
	c.Scenario.Interactive.Seed += s.Seed
	c.Scenario.Rack.Seed += s.Seed
	c.Scenario.Faults.Seed += s.Seed
	rows, per := s.Rows, s.RacksPerRow
	if rows == 0 {
		rows = 4
	}
	if per == 0 {
		per = 16
	}
	for i := 0; i < rows; i++ {
		c.Rows = append(c.Rows, hier.RowConfig{Racks: per})
	}
	return c, c.Validate()
}

func (s runSpec) linked() bool { return s.Mode != "sweep" }

// rackSeconds is the simulated rack-seconds one run of the spec covers.
func (s runSpec) rackSeconds() (float64, error) {
	c, err := s.config()
	if err != nil {
		return 0, err
	}
	racks := 0
	for _, r := range c.Rows {
		racks += r.Racks
	}
	return float64(racks) * c.Scenario.DurationS, nil
}

// benchWorkload is one traffic mix: a closed loop with one run in flight,
// run i of an invocation submitting spec(seed+i).
type benchWorkload struct {
	name string
	// journal starts sprintd with a fresh -state-dir per launch, so the
	// run journal and row checkpoints are written as for operators.
	journal bool
	spec    func(seed int64) runSpec
}

// Workloads. Why each exists is in README.md; in short: linked_paper keeps
// MPC and QP busy on the paper's noisy demand with every service plane on,
// linked_plateau makes per-tick fixed costs dominate, and sweep_fleet
// bypasses streams, link and obs to stress runner construction and the
// worker pool.
var workloads = []benchWorkload{
	{
		name:    "linked_paper",
		journal: true,
		spec: func(seed int64) runSpec {
			return runSpec{Mode: "linked", Seed: seed, LinkSeed: seed}
		},
	},
	{
		name: "linked_plateau",
		spec: func(seed int64) runSpec {
			return runSpec{Mode: "linked", Rows: 2, RacksPerRow: 8, Seed: seed, LinkSeed: seed,
				Scenario: plateauScenario(plateauLinkedS)}
		},
	},
	{
		name: "sweep_fleet",
		spec: func(seed int64) runSpec {
			return runSpec{Mode: "sweep", Rows: 4, RacksPerRow: 16, Seed: seed,
				Scenario: plateauScenario(plateauSweepS)}
		},
	},
}

// Plateau durations: two simulated hours for the 16 linked racks, a
// quarter hour for the 64 sweep racks, so one run of either takes a second
// or two and a measured interval holds a few dozen of them.
const (
	plateauLinkedS = 7200
	plateauSweepS  = 900
)

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// plateauScenario is the paper scenario made noiseless and flat: no monitor
// noise, utilization jitter or ambient swing; interactive demand held at
// 0.4 with no diurnal swing, noise or spikes; the single-phase batch mix;
// and a burst window spanning the whole run. Warm QP solves then converge
// in about one sweep, so per-tick fixed costs dominate.
func plateauScenario(durationS float64) json.RawMessage {
	s := sim.DefaultScenario()
	s.DurationS = durationS
	s.BurstDurationS = durationS
	s.AmbientSwingC = 0
	s.Rack.MonitorNoiseStd = 0
	s.Rack.UtilJitterStd = 0
	s.Interactive.Base = 0.4
	s.Interactive.BurstPeak = 0.4
	s.Interactive.BurstEndS = durationS
	s.Interactive.DiurnalAmp = 0
	s.Interactive.NoiseStd = 0
	s.Interactive.SpikeProb = 0
	s.BatchSpecs = workload.SteadyStateSpecs()
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		panic(fmt.Sprintf("plateau scenario: %v", err)) // a fixed, valid scenario
	}
	return b.Bytes()
}

// controlPeriods is how many decision records one rack emits over the
// spec's run: one per control period, the first at t=0.
func controlPeriods(c hier.Config) int {
	return int(math.Ceil(c.Scenario.DurationS/c.SprintCon.ControlPeriodS - 1e-9))
}

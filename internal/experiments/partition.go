package experiments

import (
	"fmt"
	"math"

	"sprintcon/internal/faults"
	"sprintcon/internal/hier"
	"sprintcon/internal/link"
)

// partitionRow is one network condition of the E19 matrix.
type partitionRow struct {
	Label string
	Plan  faults.Plan
	// HealS is when the last connectivity fault clears (for the re-entry
	// latency note); NaN for rows with no partition.
	HealS float64
	// Rack is the partitioned rack for single-rack rows, -1 otherwise.
	Rack int
}

// PartitionRows returns the E19 network conditions. The sustained single-rack
// partition starts before the first overload window so the coordinator
// repacks the missing rack's slot while the naive client still holds a grant
// for it — the collision the lease discipline exists to prevent.
func PartitionRows() []partitionRow {
	return []partitionRow{
		{"clean", faults.Plan{}, math.NaN(), -1},
		{"loss-30", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkLoss, OnsetS: 0, DurationS: 900, Severity: 0.3},
		}}, math.NaN(), -1},
		{"loss-30+delay-3", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkLoss, OnsetS: 0, DurationS: 900, Severity: 0.3},
			{Kind: faults.LinkDelay, OnsetS: 0, DurationS: 900, Severity: 3},
		}}, math.NaN(), -1},
		{"partition-r0-690s", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkPartition, Server: 0, OnsetS: 10, DurationS: 690, Severity: 1},
		}}, 700, 0},
		{"partition-all-300s", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkPartition, Server: faults.AllRacks, OnsetS: 100, DurationS: 300, Severity: 1},
		}}, 400, -1},
		{"coord-crash-60s", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.CoordinatorCrash, OnsetS: 200, DurationS: 60, Severity: 1},
		}}, 260, -1},
	}
}

// linkedGroup is the E19 feeder group: four paper racks on one row feeder,
// auto-provisioned at their minimum packing (4·rated + 2·bonus), run as a
// one-row building.
func linkedGroup() hier.Config {
	cfg := hier.DefaultConfig()
	cfg.Rows = []hier.RowConfig{{Racks: 4}}
	return cfg
}

// PartitionMatrix is experiment E19: every network condition runs the default
// four-rack feeder group twice — once with the lease-disciplined link client,
// once with the naive always-trust-last-grant strawman that keeps sprinting
// on whatever grant it last heard. The table reports feeder exceedance,
// feeder and rack breaker trips, degraded-mode seconds and re-sync counts per
// (condition, client) pair. The headline claims, asserted by tests: under a
// sustained partition the naive client over-subscribes the feeder (exceedance
// or trips) while the lease client records zero trips and negligible
// exceedance on every row, and a healed rack re-enters coordinated sprinting
// within one control period of the heal.
func PartitionMatrix() (*Table, error) {
	t := &Table{
		ID:      "e19",
		Title:   "partition matrix: network faults vs link client (4 racks, 15-min sprint)",
		Columns: []string{"condition", "client", "exceed_frac", "feeder_trips", "cb_trips", "degraded_s", "resyncs"},
	}
	naiveBroken := false
	leaseClean := true
	for _, r := range PartitionRows() {
		for _, naive := range []bool{false, true} {
			cfg := linkedGroup()
			cfg.NaiveTrustLastGrant = naive
			cfg.Scenario.Faults = r.Plan
			run, err := hier.RunLinked(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: partition matrix %s: %w", r.Label, err)
			}
			res := run.Rows[0]
			name := "lease"
			if naive {
				name = "naive"
			}
			t.AddRow(r.Label, name, res.FeederExceedFrac, res.FeederTrips,
				res.CBTrips, res.DegradedS(), res.Resyncs())

			if naive && r.Rack == 0 && (res.FeederExceedFrac > 0.02 || res.FeederTrips > 0) {
				naiveBroken = true
			}
			if !naive {
				if res.FeederTrips > 0 || res.CBTrips > 0 || res.FeederExceedFrac > 0.01 {
					leaseClean = false
				}
				if r.Rack >= 0 && !math.IsNaN(r.HealS) {
					c := res.Clients[r.Rack]
					t.Notes = append(t.Notes, fmt.Sprintf(
						"%s: rack %d re-synced %.0f s after the heal (budget: one %g s control period + transit)",
						r.Label, r.Rack, c.LastResyncS-r.HealS, link.RefreshS))
				}
			}
		}
	}
	t.Notes = append(t.Notes,
		"lease client must show feeder_trips=0 and cb_trips=0 on every row",
		"naive client keeps overloading on its stale grant after the coordinator reassigns the slot — three concurrent overloads against a two-slot budget",
	)
	if naiveBroken && leaseClean {
		t.Notes = append(t.Notes, "confirmed: sustained partition breaks always-trust-last-grant while the lease ladder holds")
	}
	return t, nil
}

// Partition storm: rack 0 loses the coordinator↔rack control link for most
// of the sprint, starting just before the first overload window. The
// coordinator notices the missing heartbeats, presumes the rack degraded and
// hands its overload slot to another rack; the partitioned rack's lease
// expires within one TTL, so it falls back to rated power with overloads
// suspended — and the feeder never sees more concurrent overloads than it
// funds. The naive client that keeps trusting its last grant sprints on the
// reassigned slot instead: three concurrent overloads against a two-slot
// budget, and the feeder draw shows it.
//
//	go run ./examples/partitionstorm
package main

import (
	"fmt"
	"log"

	"sprintcon/internal/faults"
	"sprintcon/internal/hier"
	"sprintcon/internal/seriesio"
)

func main() {
	for _, naive := range []bool{false, true} {
		// Four racks on one feeder: a one-row building, auto-provisioned
		// with two concurrent overload slots.
		cfg := hier.DefaultConfig()
		cfg.Rows = []hier.RowConfig{{Racks: 4}}
		cfg.NaiveTrustLastGrant = naive
		// Cut rack 0 off the control network from t=10 s until t=700 s.
		cfg.Scenario.Faults.Faults = []faults.Fault{
			{Kind: faults.LinkPartition, Server: 0, OnsetS: 10, DurationS: 690, Severity: 1},
		}

		run, err := hier.RunLinked(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := run.Rows[0]

		mode := "lease-disciplined link"
		if naive {
			mode = "naive trust-last-grant link"
		}
		fmt.Printf("=== %d racks, %s ===\n", len(res.Racks), mode)
		fmt.Printf("feeder peak %.0f W | exceedance %.1f%% of ticks | feeder trips %d | rack trips %d\n",
			res.PeakW, 100*res.FeederExceedFrac, res.FeederTrips, res.CBTrips)
		fmt.Printf("degraded %.0f rack-seconds | resyncs %d | coordinator repacks %d, presumed-degraded %d\n",
			res.DegradedS(), res.Resyncs(), res.Coord.Repacks, res.Coord.Presumed)
		fmt.Println(seriesio.PlotRow("feeder", res.AggregateW, 80, "W"))
		fmt.Printf("(budget %.0f W)\n\n", run.Alloc.Rows[0].BudgetW)
	}
	fmt.Println("The lease TTL turns a silent partition into a bounded, local degradation;")
	fmt.Println("trusting the last grant turns it into a feeder overdraw nobody scheduled.")
}

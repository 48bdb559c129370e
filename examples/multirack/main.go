// Multi-rack: coordinate four SprintCon racks sharing one data-center
// feeder. Staggering the racks' breaker-overload phases keeps the
// aggregate draw under a feeder provisioned for only two concurrent
// overloads — the data-center-level headroom concern the paper raises.
//
//	go run ./examples/multirack
package main

import (
	"fmt"
	"log"

	"sprintcon/internal/hier"
	"sprintcon/internal/seriesio"
	"sprintcon/internal/stats"
)

func main() {
	// The feeder is a one-row building auto-provisioned for two
	// concurrent overloads, so the sweep staggers the racks evenly. A row
	// rated for every rack's overload runs them in phase.
	c := hier.DefaultConfig()
	c.Rows = []hier.RowConfig{{Racks: 4}}
	a, err := hier.Allocate(c)
	if err != nil {
		log.Fatal(err)
	}
	feederW := a.Rows[0].RatingW
	for _, row := range []struct {
		mode    string
		ratingW float64
	}{
		{"synchronized overload phases", 4 * (a.RatedW + a.BonusW)},
		{"staggered overload phases", feederW},
	} {
		c.Rows[0].RatingW = row.ratingW
		res, err := hier.RunSweep(c)
		if err != nil {
			log.Fatal(err)
		}

		agg := res.BuildingAggregateW
		fmt.Printf("=== %d racks, %s ===\n", a.TotalRacks, row.mode)
		fmt.Printf("feeder peak %.0f W | mean %.0f W | over budget %.1f%% of ticks | trips %d | misses %d\n",
			res.BuildingPeakW, res.BuildingMeanW, 100*stats.FracAbove(agg, feederW), res.CBTrips, res.DeadlineMisses)
		fmt.Println(seriesio.PlotRow("feeder", agg, 80, "W"))
		fmt.Printf("(budget %.0f W)\n\n", feederW)
	}
	fmt.Println("Staggering shifts when each rack draws its overload bonus; no energy is shed.")
}

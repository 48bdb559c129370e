package daily

import (
	"fmt"
	"math"

	"sprintcon/internal/sim"
)

// SimulateDay and DayOutcome are test-only: the day-by-day simulation is the
// oracle TestSimulateDaySprintCon and TestSimulateDayTrickleChargerCompounds
// check Evaluate's one-sprint extrapolation against.

// DayOutcome is the result of actually simulating a full operating day —
// every sprint in sequence with recharge windows between them and the UPS
// state of charge carried across — rather than extrapolating from one
// sprint as Evaluate does.
type DayOutcome struct {
	Sprints []*sim.Result // per-sprint results, in order

	// StartSoCs records the state of charge each sprint began with.
	StartSoCs []float64
	// MinStartSoC is the worst of them: 1.0 means the charger always
	// kept up.
	MinStartSoC float64
	// FullyRecharged reports whether every sprint started at ≥99 % SoC.
	FullyRecharged bool

	TotalTrips   int
	TotalOutageS float64
	TotalMisses  int
}

// SimulateDay runs the plan's sprints back to back: sprint i uses the UPS
// charge left by sprint i−1 plus whatever the charger restored during the
// gap. newPolicy must return a fresh policy per sprint (policies carry
// per-run state). Sprints see distinct interactive traffic (seed offset).
func SimulateDay(plan Plan, newPolicy func() sim.Policy) (*DayOutcome, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	gapS := 24*3600/float64(plan.SprintsPerDay) - plan.Scenario.DurationS

	out := &DayOutcome{MinStartSoC: 1}
	soc := plan.Scenario.UPS.InitialSoC
	if soc == 0 {
		soc = 1
	}
	for i := 0; i < plan.SprintsPerDay; i++ {
		scn := plan.Scenario
		scn.UPS.InitialSoC = soc
		scn.Interactive.Seed += int64(i)
		scn.Rack.Seed += int64(i)

		out.StartSoCs = append(out.StartSoCs, soc)
		out.MinStartSoC = math.Min(out.MinStartSoC, soc)

		res, err := sim.Run(scn, newPolicy())
		if err != nil {
			return nil, fmt.Errorf("daily: sprint %d: %w", i, err)
		}
		out.Sprints = append(out.Sprints, res)
		out.TotalTrips += res.CBTrips
		out.TotalOutageS += res.OutageS
		out.TotalMisses += res.DeadlineMisses

		// Recharge during the gap: the charger restores energy up to
		// the capacity (losses folded into the plan's RechargeW).
		endSoC := res.Series.SoC[len(res.Series.SoC)-1]
		restoredWh := plan.RechargeW * gapS / 3600
		soc = math.Min(1, endSoC+restoredWh/scn.UPS.CapacityWh)
	}
	out.FullyRecharged = out.MinStartSoC >= 0.99
	return out, nil
}

package experiments

import (
	"fmt"

	"sprintcon/internal/hier"
	"sprintcon/internal/stats"
)

// E20 topology: four row feeders of eight racks each. Auto-provisioning
// gives every row its minimum packing (8·rated + ⌈8/3⌉·bonus = 28 kW) and
// the building the sum of the row ratings (112 kW), so the flat strawman
// below runs against exactly the same total budget.
const (
	hierRowCount    = 4
	hierRacksPerRow = 8
)

// HierarchyExceedance is experiment E20: the same building — four row
// feeders of eight paper racks — run twice against the same total budget.
// The hierarchical allocator funds each row within its own breaker rating
// and lets each row's coordinator pack overload slots locally; the flat
// strawman hands the whole building budget to one coordinator that packs
// slots by rack ID, blind to which row feeder each rack hangs from. With
// K = 12 concurrent overloads building-wide, the flat packing puts racks
// 0–11 in the same overload window, so row 0's eight racks sprint together
// and pull ~32 kW through a 28 kW row breaker. The table reports, per row
// feeder and for the building feeder, the exceedance fraction and shadow
// breaker trips under both allocations. The claims, asserted by tests: the
// hierarchy shows zero exceedance and zero trips at every level, while the
// flat allocation overruns at least one row breaker even though the
// building-level record looks identical.
func HierarchyExceedance() (*Table, error) {
	hcfg := hier.DefaultConfig()
	hcfg.Rows = make([]hier.RowConfig, hierRowCount)
	for i := range hcfg.Rows {
		hcfg.Rows[i] = hier.RowConfig{Racks: hierRacksPerRow}
	}
	hres, err := hier.RunLinked(hcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: hierarchy run: %w", err)
	}
	a := hres.Alloc

	// The flat strawman: one coordinator over all racks with the whole
	// building budget — a one-row building whose row is rated at it. Rack
	// seeds match the hierarchy's global indices (both offset the default
	// scenario's seeds by the rack's building-wide index), so the two runs
	// see identical per-rack traffic.
	fcfg := hcfg
	fcfg.Rows = []hier.RowConfig{{Racks: hierRowCount * hierRacksPerRow, RatingW: a.BuildingBudgetW}}
	flat, err := hier.RunLinked(fcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: flat run: %w", err)
	}
	fres := flat.Rows[0]

	t := &Table{
		ID:    "e20",
		Title: "hierarchical vs flat allocation: per-feeder exceedance (4 rows × 8 racks, shared 112 kW budget)",
		Columns: []string{"feeder", "rating_w", "hier_exceed", "hier_trips",
			"flat_exceed", "flat_trips"},
	}
	dt := hcfg.Scenario.DtS
	tol := 1 + hier.FeederTolerance
	worstFlatRow := 0.0
	for r, row := range a.Rows {
		// Row r's draw under the flat allocation: the summed breaker draw
		// of the racks that hang from its feeder, scored against the row
		// rating the flat coordinator never saw.
		draw := make([]float64, len(fres.AggregateW))
		for i := row.StartRack; i < row.StartRack+row.Racks; i++ {
			for tick, w := range fres.Racks[i].Series.CBW {
				draw[tick] += w
			}
		}
		flatExceed := stats.FracAbove(draw, row.RatingW*tol)
		flatTrips := hier.ShadowTrips(row.RatingW, draw, dt)
		if flatExceed > worstFlatRow {
			worstFlatRow = flatExceed
		}
		t.AddRow(fmt.Sprintf("row %d", r), row.RatingW,
			hres.Rows[r].FeederExceedFrac, hres.Rows[r].FeederTrips,
			flatExceed, flatTrips)
	}
	t.AddRow("building", a.BuildingBudgetW,
		hres.BuildingExceedFrac, hres.BuildingTrips,
		fres.FeederExceedFrac, fres.FeederTrips)

	kFlat := flat.Alloc.Rows[0].SlotCapacity
	t.Notes = append(t.Notes,
		fmt.Sprintf("both allocations grant %g W total; only the hierarchy constrains where the concurrency lands", a.BuildingBudgetW),
		"hierarchical rows must show exceed=0 and trips=0 on every feeder",
		fmt.Sprintf("flat packing is row-blind: %d concurrent overloads land on racks 0-%d, so row 0 sprints whole-row against its own breaker", kFlat, kFlat-1),
	)
	if worstFlatRow > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"confirmed: flat allocation overruns a row breaker %.1f%% of the time while the building feeder record stays clean",
			100*worstFlatRow))
	}
	return t, nil
}

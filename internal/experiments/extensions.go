package experiments

import (
	"fmt"

	"sprintcon/internal/baseline"
	"sprintcon/internal/core"
	"sprintcon/internal/daily"
	"sprintcon/internal/hier"
	"sprintcon/internal/qos"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

// QoSComparison (extension E10) translates the Fig. 7 frequency comparison
// into interactive latency terms with an M/M/1 response-time model: the
// cost of the baselines' interactive throttling in milliseconds and SLO
// violations.
func QoSComparison() (*Table, error) {
	all, err := RunAll(sim.DefaultScenario())
	if err != nil {
		return nil, err
	}
	cfg := qos.DefaultConfig()
	t := &Table{
		ID:    "qos",
		Title: "E10: interactive latency under each policy (M/M/1 lens)",
		Columns: []string{"policy", "mean_ms", "p99_ms", "slo_viol_frac",
			"saturated_frac"},
	}
	for _, name := range []string{"SprintCon", "SGCT", "SGCT-V1", "SGCT-V2"} {
		r := all[name]
		s, err := cfg.Evaluate(r.Series.Demand, r.Series.FreqInter)
		if err != nil {
			return nil, fmt.Errorf("qos %s: %w", name, err)
		}
		t.AddRow(name, s.MeanMs, s.P99Ms, s.SLOViolFrac, s.SaturatedFrac)
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: the paper reports frequencies; this maps them to response times",
		"expectation: SprintCon (peak frequency throughout) has the lowest latency and no saturation outside outages")
	return t, nil
}

// ClusterStagger (extension E12) coordinates four SprintCon racks on one
// data-center feeder: staggering the racks' overload phases flattens the
// aggregate draw, the data-center-level concern the paper's introduction
// raises ("the sprinting power can consume the headroom in the data-center
// level power budget").
func ClusterStagger() (*Table, error) {
	t := &Table{
		ID:    "cluster",
		Title: "E12: four racks on one feeder — synchronized vs staggered overloads",
		Columns: []string{"coordination", "feeder_peak_w", "feeder_mean_w",
			"over_budget_frac", "cb_trips", "misses"},
	}
	// The feeder is a one-row building auto-provisioned at its minimum
	// packing: two concurrent overloads (K=2 < 4), so the sweep staggers
	// the racks evenly. Rated at 4·(rated+bonus) the row funds every
	// overload and runs the racks in phase.
	c := hier.DefaultConfig()
	c.Rows = []hier.RowConfig{{Racks: 4}}
	a, err := hier.Allocate(c)
	if err != nil {
		return nil, err
	}
	feederW := a.Rows[0].RatingW
	for _, row := range []struct {
		label   string
		ratingW float64
	}{
		{"synchronized", 4 * (a.RatedW + a.BonusW)},
		{"staggered", feederW},
	} {
		c.Rows[0].RatingW = row.ratingW
		res, err := hier.RunSweep(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.label, res.BuildingPeakW, res.BuildingMeanW,
			stats.FracAbove(res.BuildingAggregateW, feederW), res.CBTrips, res.DeadlineMisses)
	}
	t.Notes = append(t.Notes,
		"the feeder is provisioned for two concurrent rack overloads; synchronization needs capacity for four",
		"staggering shifts when each rack draws its overload bonus without shedding any energy")
	return t, nil
}

// AblationEstimation (extension E13) evaluates the online model estimation
// hook ([27]): SprintCon with a 3×-miscalibrated power model, with and
// without recursive-least-squares slope adaptation.
func AblationEstimation() (*Table, error) {
	t := &Table{
		ID:    "ablation-estimation",
		Title: "E13: online model estimation under a 3x miscalibrated power model",
		Columns: []string{"variant", "final_k_w_per_ghz", "misses", "time_use",
			"dod", "cb_trips"},
	}
	scn := sim.DefaultScenario()
	run := func(label string, kScale float64, online bool) error {
		cfg := core.DefaultConfig()
		cfg.InitialKScale = kScale
		cfg.OnlineEstimation = online
		p := core.New(cfg)
		res, err := sim.Run(scn, p)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		t.AddRow(label, p.ModelK(), res.DeadlineMisses,
			res.NormalizedTimeUse(), res.UPSDoD, res.CBTrips)
		return nil
	}
	if err := run("calibrated, static (paper)", 1, false); err != nil {
		return nil, err
	}
	if err := run("3x steep, static", 3, false); err != nil {
		return nil, err
	}
	if err := run("3x steep, RLS-adapted", 3, true); err != nil {
		return nil, err
	}
	if err := run("3x shallow, RLS-adapted", 0.34, true); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"the RLS estimate converges to the plant's *local* slope at the operating point; from either a 3x-steep or 3x-shallow start the adapted controller meets every deadline",
		"the adapted runs stay somewhat conservative (higher DoD than calibrated) because one global slope cannot capture the plant's frequency-dependent gain",
		"safety (no trips) holds in every variant: feedback, not the model, carries the safety property")
	return t, nil
}

// DailyCost (extension E11) makes the paper's Section VII-D economics
// executable: battery wear, recharge feasibility and dollar costs for the
// "15-minute sprint, 10 times per day, 10 years" regime.
func DailyCost() (*Table, error) {
	plan := daily.DefaultPlan()
	t := &Table{
		ID:    "daily-cost",
		Title: "E11: 10-year cost of 10 sprints/day",
		Columns: []string{"policy", "dod", "battery_life_y", "replacements",
			"recharge_ok", "energy_usd_y", "battery_usd_10y", "total_usd_10y"},
	}
	policies := []sim.Policy{
		core.New(core.DefaultConfig()),
		baseline.New(baseline.SGCT),
		baseline.New(baseline.SGCTV1),
		baseline.New(baseline.SGCTV2),
	}
	for _, p := range policies {
		o, err := daily.Evaluate(plan, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(o.Policy, o.DoD, o.BatteryLifeYears, o.Replacements,
			o.RechargeFeasible, o.EnergyUSDPerYear, o.BatteryUSDPerHorizon,
			o.TotalUSDPerHorizon)
	}
	t.Notes = append(t.Notes,
		"paper Section VII-D: SprintCon needs no battery replacement within the 10-year chemical life; the baselines replace packs 3-4 times",
		"costs use the plan's placeholder prices; the *ratios* are the claim")
	return t, nil
}

package experiments

import (
	"fmt"
	"math"

	"sprintcon/internal/baseline"
	"sprintcon/internal/breaker"
	"sprintcon/internal/core"
	"sprintcon/internal/cpu"
	"sprintcon/internal/server"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
	"sprintcon/internal/workload"
)

// policies returns fresh instances of the four evaluated policies.
func policies() []sim.Policy {
	return []sim.Policy{
		core.New(core.DefaultConfig()),
		baseline.New(baseline.SGCT),
		baseline.New(baseline.SGCTV1),
		baseline.New(baseline.SGCTV2),
	}
}

// RunAll runs the scenario under every policy concurrently and returns the
// results keyed by policy name.
func RunAll(scn sim.Scenario) (map[string]*sim.Result, error) {
	var jobs []sim.Job
	for _, p := range policies() {
		jobs = append(jobs, sim.Job{Key: p.Name(), Scenario: scn, Policy: p})
	}
	out, err := sim.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return out, nil
}

// Fig1PerWattSpeedup reproduces the paper's Fig. 1: per-watt speedup versus
// processor frequency for six workloads, normalized to the lowest P-state.
// The paper's observation — per-watt speedup generally *decreases* as
// frequency rises — is what motivates controlled low-power sprinting.
func Fig1PerWattSpeedup() (*Table, error) {
	params := server.DefaultParams()
	specs := workload.Fig1Workloads()
	freqs := []float64{0.4, 0.8, 1.2, 1.6, 2.0}

	t := &Table{
		ID:      "fig1",
		Title:   "per-watt speedup vs frequency (6 workloads)",
		Columns: append([]string{"freq_ghz"}, names(specs)...),
	}
	fmin := params.PStates.Min()
	idleShare := params.IdleW / float64(params.Cores)
	// One server's row: one active batch core, utilization from spec; the
	// rest idle at the lowest P-state.
	rowF := make([]float64, params.Cores)
	rowU := make([]float64, params.Cores)
	rowCl := make([]cpu.Class, params.Cores)
	for i := range rowF {
		rowF[i] = fmin
	}
	rowCl[0] = cpu.Batch
	// Sprinting spends *dynamic* power: per-watt speedup is normalized to
	// the frequency-dependent power above the idle floor, which is the
	// power a sprint decision actually buys.
	dynAt := func(f, util float64) float64 {
		rowF[0] = params.PStates.Quantize(f)
		rowU[0] = cpu.ClampUtil(util)
		return params.PowerOfClass(rowF, rowU, rowCl, cpu.Batch, server.Environment{AmbientC: 25}) - idleShare
	}
	for _, f := range freqs {
		row := []interface{}{f}
		for _, s := range specs {
			speedup := s.Speedup(f, fmin, params.PStates.Max())
			relPower := dynAt(f, s.Util) / dynAt(fmin, s.Util)
			row = append(row, speedup/relPower)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper expectation: per-watt speedup decreases with frequency for all workloads",
		"memory-bound workloads (429.mcf, 433.milc) fall fastest",
		"normalization: speedup over dynamic (above-idle) power ratio, the power a sprint decision buys")
	return t, nil
}

func names(specs []workload.BatchSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Fig2TripCurve reproduces Fig. 2: the breaker's trip time as a nonlinear
// decreasing function of the overload degree.
func Fig2TripCurve() (*Table, error) {
	b, err := breaker.New(breaker.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "circuit breaker trip-time curve",
		Columns: []string{"overload_degree", "trip_time_s"},
	}
	for _, o := range []float64{1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.5, 2.0, 3.0, 5.0} {
		t.AddRow(o, b.TripTime(o))
	}
	t.Notes = append(t.Notes,
		"calibration: overload degree 1.25 sustainable ≈155 s (paper uses 150 s with margin)",
		"paper expectation: nonlinear, strictly decreasing (Bulletin 1489-A shape)")
	return t, nil
}

// Fig3PeriodicSprint reproduces the Fig. 3 illustration: short periodic
// sprinting (≈18 s period) alternating a high-power sprint phase with a
// rest phase, sustainable indefinitely because each cycle's overload fits
// the thermal budget the rest phase restores.
func Fig3PeriodicSprint() (*Table, error) {
	b, err := breaker.New(breaker.DefaultConfig())
	if err != nil {
		return nil, err
	}
	const (
		period  = 18.0
		sprintS = 6.0
		high    = 1.4 // overload degree while sprinting
	)
	t := &Table{
		ID:      "fig3",
		Title:   "periodic computational sprinting (18 s period)",
		Columns: []string{"time_s", "power_w", "thermal_fraction"},
	}
	rated := b.RatedPower()
	for tick := 0.0; tick < 5*period; tick++ {
		p := 0.8 * rated
		if math.Mod(tick, period) < sprintS {
			p = high * rated
		}
		b.Step(p, 1)
		if b.Tripped() {
			return nil, fmt.Errorf("experiments: fig3 sprint schedule tripped the breaker at t=%v", tick)
		}
		if int(tick)%3 == 0 {
			t.AddRow(tick, p, b.ThermalFraction())
		}
	}
	t.Notes = append(t.Notes,
		"paper expectation: periodic sprinting is sustainable; thermal state saw-tooths below the trip budget")
	return t, nil
}

// Fig5Uncontrolled reproduces Fig. 5: uncontrolled sprinting (SGCT) trips
// the breaker, forces the UPS to carry the rack, exhausts it, and causes an
// outage. It returns the full result for series plotting alongside the
// summary table.
func Fig5Uncontrolled() (*Table, *sim.Result, error) {
	res, err := sim.Run(sim.DefaultScenario(), baseline.New(baseline.SGCT))
	if err != nil {
		return nil, nil, err
	}
	firstTrip := math.NaN()
	for i := 1; i < len(res.Series.Time); i++ {
		if res.Series.CBW[i] == 0 && res.Series.CBW[i-1] > 0 && res.Series.TotalW[i] > 0 {
			firstTrip = res.Series.Time[i]
			break
		}
	}
	depleted := math.NaN()
	for i := range res.Series.Time {
		if res.Series.SoC[i] <= 0.001 {
			depleted = res.Series.Time[i]
			break
		}
	}
	t := &Table{
		ID:      "fig5",
		Title:   "uncontrolled sprinting (SGCT) failure sequence",
		Columns: []string{"event", "measured", "paper"},
	}
	t.AddRow("first CB trip (s)", firstTrip, "~150")
	t.AddRow("UPS depleted (min)", depleted/60, "~11")
	t.AddRow("outage (s)", res.OutageS, ">0 (power outage)")
	t.AddRow("CB trips", res.CBTrips, "≥1")
	t.AddRow("UPS DoD (%)", 100*res.UPSDoD, "~100")
	t.AddRow("avg freq interactive", res.AvgFreqInter, "0.64")
	t.AddRow("avg freq batch", res.AvgFreqBatch, "0.71")
	t.Notes = append(t.Notes,
		"shape check: trip within the first overload window, UPS exhausted before the sprint ends, outage follows")
	return t, res, nil
}

// Fig6PowerBehavior reproduces Fig. 6: the power-curve comparison between
// SprintCon, SGCT-V1 and SGCT-V2. The summary rows quantify the curve
// shapes the paper plots; the returned results carry the full series.
func Fig6PowerBehavior() (*Table, map[string]*sim.Result, error) {
	scn := sim.DefaultScenario()
	all, err := RunAll(scn)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:    "fig6",
		Title: "power behaviour: CB utilization and UPS usage",
		Columns: []string{"policy", "cb_energy_wh", "cb_overload_energy_wh",
			"ups_energy_wh", "total_std_w", "cb_over_budget_frac"},
	}
	for _, name := range []string{"SprintCon", "SGCT-V1", "SGCT-V2"} {
		r := all[name]
		t.AddRow(name, r.EnergyCBWh, r.EnergyCBOverWh,
			r.UPSDischargedWh, stats.Std(r.Series.TotalW), r.CBOverBudgetFrac)
	}
	t.Notes = append(t.Notes,
		"paper expectation: SprintCon's total power fluctuates with interactive load while its CB power hugs the budget",
		"paper expectation: SGCT-V1/V2 hold total power nearly flat (small std) and lean on the UPS during CB recovery")
	return t, all, nil
}

// Fig7FrequencyBehavior reproduces Fig. 7: average normalized frequencies
// for interactive and batch processing under each policy.
func Fig7FrequencyBehavior() (*Table, error) {
	all, err := RunAll(sim.DefaultScenario())
	if err != nil {
		return nil, err
	}
	paper := map[string][2]string{
		"SprintCon": {"1.00", "0.59"},
		"SGCT":      {"0.64", "0.71"},
		"SGCT-V1":   {"0.84", "0.91"},
		"SGCT-V2":   {"0.94", "0.84"},
	}
	t := &Table{
		ID:      "fig7",
		Title:   "average normalized frequencies (interactive / batch)",
		Columns: []string{"policy", "interactive", "batch", "paper_interactive", "paper_batch"},
	}
	for _, name := range []string{"SprintCon", "SGCT", "SGCT-V1", "SGCT-V2"} {
		r := all[name]
		t.AddRow(name, r.AvgFreqInter, r.AvgFreqBatch, paper[name][0], paper[name][1])
	}
	t.Notes = append(t.Notes,
		"shape check: SprintCon keeps interactive at peak; interactive ordering SprintCon > V2 > V1 > SGCT; batch ordering V1 > V2 > SGCT > SprintCon")
	return t, nil
}

// DeadlineSweep runs all policies across the paper's 9/12/15-minute batch
// deadlines concurrently and returns results[deadline][policy].
func DeadlineSweep() (map[float64]map[string]*sim.Result, error) {
	deadlines := []float64{540, 720, 900}
	var jobs []sim.Job
	for _, d := range deadlines {
		scn := sim.DefaultScenario()
		scn.BatchDeadlineS = d
		for _, p := range policies() {
			jobs = append(jobs, sim.Job{
				Key:      fmt.Sprintf("%s@%.0f", p.Name(), d),
				Scenario: scn,
				Policy:   p,
			})
		}
	}
	flat, err := sim.RunMany(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := make(map[float64]map[string]*sim.Result)
	for _, d := range deadlines {
		byPolicy := make(map[string]*sim.Result)
		for _, name := range []string{"SprintCon", "SGCT", "SGCT-V1", "SGCT-V2"} {
			byPolicy[name] = flat[fmt.Sprintf("%s@%.0f", name, d)]
		}
		out[d] = byPolicy
	}
	return out, nil
}

// Fig8aTimeUse reproduces Fig. 8(a): normalized batch completion time
// versus deadline for each policy.
func Fig8aTimeUse() (*Table, error) {
	sweep, err := DeadlineSweep()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8a",
		Title:   "normalized time use vs batch deadline",
		Columns: []string{"deadline_min", "SprintCon", "SGCT-V1", "SGCT-V2", "misses"},
	}
	for _, d := range []float64{540, 720, 900} {
		all := sweep[d]
		misses := 0
		for _, name := range []string{"SprintCon", "SGCT-V1", "SGCT-V2"} {
			misses += all[name].DeadlineMisses
		}
		t.AddRow(d/60,
			all["SprintCon"].NormalizedTimeUse(),
			all["SGCT-V1"].NormalizedTimeUse(),
			all["SGCT-V2"].NormalizedTimeUse(),
			misses)
	}
	t.Notes = append(t.Notes,
		"paper expectation: every solution meets the deadlines (time use ≤ 1)",
		"paper expectation: SprintCon's time use is closest to 1 — it alone avoids running batch work needlessly fast")
	return t, nil
}

// Fig8bDoD reproduces Fig. 8(b): UPS depth of discharge per solution per
// deadline, with the battery-life consequences the paper derives.
func Fig8bDoD() (*Table, error) {
	sweep, err := DeadlineSweep()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8b",
		Title:   "UPS depth of discharge vs batch deadline",
		Columns: []string{"deadline_min", "SprintCon", "SGCT", "SGCT-V1", "SGCT-V2"},
	}
	for _, d := range []float64{540, 720, 900} {
		all := sweep[d]
		t.AddRow(d/60,
			all["SprintCon"].UPSDoD,
			all["SGCT"].UPSDoD,
			all["SGCT-V1"].UPSDoD,
			all["SGCT-V2"].UPSDoD)
	}
	t.Notes = append(t.Notes,
		"paper expectation at 12 min: SprintCon ≈0.17, SGCT-V1/V2 ≈0.31, SGCT ≈1.0",
		"paper consequence: at 10 sprints/day SprintCon's pack lasts its 10-year chemical life; the baselines replace packs 3-4 times")
	return t, nil
}

// Headline reproduces the abstract's claims: 6–56 % higher computing
// capacity (from the interactive frequency ratios) and up to 87 % less
// demand of energy storage.
func Headline() (*Table, error) {
	all, err := RunAll(sim.DefaultScenario())
	if err != nil {
		return nil, err
	}
	sc := all["SprintCon"]
	t := &Table{
		ID:    "headline",
		Title: "headline claims: computing-capacity gain and storage savings",
		Columns: []string{"baseline", "capacity_gain_pct", "storage_savings_pct",
			"paper_capacity", "paper_storage"},
	}
	paperCap := map[string]string{"SGCT": "56 (upper bound)", "SGCT-V1": "within 6-56", "SGCT-V2": "6 (lower bound)"}
	for _, name := range []string{"SGCT", "SGCT-V1", "SGCT-V2"} {
		b := all[name]
		gain := 100 * (sc.AvgFreqInter/b.AvgFreqInter - 1)
		sav := 100 * (1 - sc.UPSDischargedWh/b.UPSDischargedWh)
		t.AddRow(name, gain, sav, paperCap[name], "up to 87")
	}
	t.Notes = append(t.Notes,
		"paper derivation: gains span (1/0.94 − 1) to (1/0.64 − 1) = 6–56 %; our SGCT suffers a longer outage, so its gain exceeds the paper's upper bound",
		"storage savings vs SGCT correspond to the paper's 'up to 87 % less demand of energy storage'")
	return t, nil
}

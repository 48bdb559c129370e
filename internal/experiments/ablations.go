package experiments

import (
	"fmt"

	"sprintcon/internal/alloc"
	"sprintcon/internal/control"
	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

// AblationController (A1) compares the MPC server power controller against
// the single-loop PI baseline, both on a step-response micro-benchmark and
// in the full closed-loop sprint.
func AblationController() (*Table, error) {
	t := &Table{
		ID:    "ablation-controller",
		Title: "A1: MPC vs PI server power controller",
		Columns: []string{"controller", "settle_periods", "overshoot_frac",
			"track_rmse_w", "full_sim_misses", "full_sim_dod"},
	}

	// Step-response micro-benchmark on the linear design model.
	step := func(mk func() func(pfb, target float64, freqs []float64) []float64) (int, float64, float64) {
		n := 16
		k := 9.6
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = 0.4
		}
		c := 150.0
		target := c + k*float64(n)*1.5
		ctrl := mk()
		var series []float64
		for s := 0; s < 30; s++ {
			p := c
			for _, f := range freqs {
				p += k * f
			}
			series = append(series, p)
			freqs = ctrl(p, target, freqs)
		}
		settle := stats.SettlingTime(series, target, 0.02*target)
		over := stats.Overshoot(series, series[0], target)
		ref := make([]float64, len(series))
		for i := range ref {
			ref[i] = target
		}
		rmse, err := stats.RMSE(series[len(series)/2:], ref[len(ref)/2:])
		if err != nil {
			rmse = -1
		}
		return settle, over, rmse
	}

	kvec := make([]float64, 16)
	for i := range kvec {
		kvec[i] = 9.6
	}
	mpcSettle, mpcOver, mpcRMSE := step(func() func(float64, float64, []float64) []float64 {
		m, err := control.NewMPC(control.DefaultMPCConfig(kvec))
		if err != nil {
			panic(err)
		}
		weights := make([]float64, 16)
		for i := range weights {
			weights[i] = 1
		}
		return func(pfb, target float64, freqs []float64) []float64 {
			next, err := m.Step(pfb, target, freqs, weights)
			if err != nil {
				panic(err)
			}
			return next
		}
	})
	piSettle, piOver, piRMSE := step(func() func(float64, float64, []float64) []float64 {
		pi, err := control.NewPI(control.DefaultPIConfig(16, 9.6*16))
		if err != nil {
			panic(err)
		}
		return pi.Step
	})

	fullSettle, fullOver, fullRMSE := step(func() func(float64, float64, []float64) []float64 {
		cfg := control.DefaultMPCConfig(kvec)
		cfg.FullHorizon = true
		m, err := control.NewMPC(cfg)
		if err != nil {
			panic(err)
		}
		weights := make([]float64, 16)
		for i := range weights {
			weights[i] = 1
		}
		return func(pfb, target float64, freqs []float64) []float64 {
			next, err := m.Step(pfb, target, freqs, weights)
			if err != nil {
				panic(err)
			}
			return next
		}
	})

	// Full closed-loop comparison.
	mpcRes, err := sim.Run(sim.DefaultScenario(), core.New(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	piCfg := core.DefaultConfig()
	piCfg.Controller = core.ControllerPI
	piRes, err := sim.Run(sim.DefaultScenario(), core.New(piCfg))
	if err != nil {
		return nil, err
	}
	fullCfg := core.DefaultConfig()
	fullCfg.Controller = core.ControllerMPCFull
	fullRes, err := sim.Run(sim.DefaultScenario(), core.New(fullCfg))
	if err != nil {
		return nil, err
	}

	t.AddRow("MPC (paper, constant-move)", mpcSettle, mpcOver, mpcRMSE, mpcRes.DeadlineMisses, mpcRes.UPSDoD)
	t.AddRow("MPC (full horizon)", fullSettle, fullOver, fullRMSE, fullRes.DeadlineMisses, fullRes.UPSDoD)
	t.AddRow("PI", piSettle, piOver, piRMSE, piRes.DeadlineMisses, piRes.UPSDoD)
	t.Notes = append(t.Notes,
		"design-choice check: MPC additionally provides per-core deadline weighting (R_{i,j}), which the PI structure cannot express",
		"the full-horizon variant lifts the paper's constant-move prediction simplification; it settles at least as fast with no overshoot")
	return t, nil
}

// AblationOverloadSchedule (A2) compares the paper's periodic CB overload
// schedule against never overloading and against one long constant
// low-degree overload, all under SprintCon.
func AblationOverloadSchedule() (*Table, error) {
	t := &Table{
		ID:    "ablation-schedule",
		Title: "A2: CB overload scheduling strategies",
		Columns: []string{"schedule", "cb_trips", "dod", "avg_batch_freq",
			"time_use", "cb_overload_energy_wh"},
	}
	scn := sim.DefaultScenario()
	variants := []struct {
		label  string
		mutate func(*alloc.Config)
	}{
		{"periodic 1.25x150s/300s (paper)", nil},
		{"no overload (degree→1)", func(c *alloc.Config) {
			c.OverloadDegree = 1.0001
		}},
		{"constant safe degree for whole burst", func(c *alloc.Config) {
			c.MidBurstS = 1000 // put the 900 s burst into the constant-overload regime
		}},
	}
	jobs := make([]sim.Job, len(variants))
	for i, v := range variants {
		acfg := alloc.DefaultConfig(scn.Breaker.RatedPower, scn.Breaker.TripBudget())
		if v.mutate != nil {
			v.mutate(&acfg)
		}
		cfg := core.DefaultConfig()
		cfg.AllocOverride = &acfg
		jobs[i] = sim.Job{Key: v.label, Scenario: scn, Policy: core.New(cfg)}
	}
	results, err := sim.RunManyOrdered(jobs, 0)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		res := results[i]
		t.AddRow(v.label, res.CBTrips, res.UPSDoD, res.AvgFreqBatch,
			res.NormalizedTimeUse(), res.EnergyCBOverWh)
	}
	t.Notes = append(t.Notes,
		"design-choice check: the periodic schedule extracts the most overload energy from the breaker without tripping",
		"no-overload forgoes the CB bonus and must lean on the UPS (or slow batch work) instead")
	return t, nil
}

// AblationUPSControl (A3) compares UPS discharge-control structures:
// feedforward+trim (paper-faithful), feedforward only, and pure PI.
func AblationUPSControl() (*Table, error) {
	t := &Table{
		ID:    "ablation-ups",
		Title: "A3: UPS discharge controller structures",
		Columns: []string{"controller", "cb_over_budget_frac", "cb_track_err_w",
			"dod", "cb_trips"},
	}
	scn := sim.DefaultScenario()
	ff := control.DefaultUPSControllerConfig()
	ffOnly := ff
	ffOnly.TrimKi = 0
	pi := control.UPSControllerConfig{
		PeriodS: 1, TrimKi: 0.4, TrimKp: 0.8, TrimLimitW: 2000,
		Feedforward: false, TargetMarginW: 30,
	}
	variants := []struct {
		label string
		ucfg  control.UPSControllerConfig
	}{
		{"feedforward+trim (paper)", ff},
		{"feedforward only", ffOnly},
		{"pure PI (no feedforward)", pi},
	}
	jobs := make([]sim.Job, len(variants))
	for i, v := range variants {
		cfg := core.DefaultConfig()
		cfg.UPSCtl = v.ucfg
		jobs[i] = sim.Job{Key: v.label, Scenario: scn, Policy: core.New(cfg)}
	}
	results, err := sim.RunManyOrdered(jobs, 0)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		res := results[i]
		t.AddRow(v.label, res.CBOverBudgetFrac, res.CBTrackingErrorW, res.UPSDoD, res.CBTrips)
	}
	t.Notes = append(t.Notes,
		"design-choice check: without feedforward the controller chases interactive fluctuation and violates the CB budget more often")
	return t, nil
}

// Sensitivity (A4) sweeps the server power controller's period and the
// reference-trajectory time constant τ_r.
func Sensitivity() (*Table, error) {
	t := &Table{
		ID:      "sensitivity",
		Title:   "A4: control period and τ_r sensitivity",
		Columns: []string{"period_s", "tau_r_s", "misses", "dod", "time_use", "cb_over_budget_frac"},
	}
	periods := []float64{2, 4, 8}
	taus := []float64{1, 2, 8}
	// The grid's runs are independent seeded simulations: execute them on
	// the worker pool and emit rows in deterministic grid order.
	var jobs []sim.Job
	for _, period := range periods {
		for _, tau := range taus {
			cfg := core.DefaultConfig()
			cfg.ControlPeriodS = period
			cfg.RefTimeConstS = tau
			jobs = append(jobs, sim.Job{
				Key:      fmt.Sprintf("period=%v,tau=%v", period, tau),
				Scenario: sim.DefaultScenario(),
				Policy:   core.New(cfg),
			})
		}
	}
	results, err := sim.RunManyOrdered(jobs, 0)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, period := range periods {
		for _, tau := range taus {
			res := results[i]
			i++
			t.AddRow(period, tau, res.DeadlineMisses, res.UPSDoD,
				res.NormalizedTimeUse(), res.CBOverBudgetFrac)
		}
	}
	t.Notes = append(t.Notes,
		"Section V-B: larger τ_r reduces overshoot but slows convergence; the allocator period must exceed the settling time")
	return t, nil
}

// All returns every experiment table in DESIGN.md order.
func All() ([]*Table, error) {
	type ctor func() (*Table, error)
	ctors := []ctor{
		Fig1PerWattSpeedup,
		Fig2TripCurve,
		Fig3PeriodicSprint,
		func() (*Table, error) { t, _, err := Fig5Uncontrolled(); return t, err },
		func() (*Table, error) { t, _, err := Fig6PowerBehavior(); return t, err },
		Fig7FrequencyBehavior,
		Fig8aTimeUse,
		Fig8bDoD,
		Headline,
		AblationController,
		AblationOverloadSchedule,
		AblationUPSControl,
		Sensitivity,
		QoSComparison,
		DailyCost,
		ClusterStagger,
		AblationEstimation,
		BatteryProvisioning,
		BurstRegimes,
		EnergyEfficiency,
		SprintingBenefit,
		FaultMatrix,
		PartitionMatrix,
		HierarchyExceedance,
	}
	var out []*Table
	for _, c := range ctors {
		t, err := c()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

package experiments

import (
	"fmt"
	"math"
	"strings"

	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
)

// detectBudgetS is the alert-latency budget: every strict fault class must
// fire its expected detector within three control periods of fault onset.
const detectBudgetS = 3 * 4 // ControlPeriodS = 4

// expectedDetector maps an E18 fault label to the detector that must catch
// it: monitor faults collapse the measurement guard's confidence, actuator
// faults show up as locked cores or command-tracking error, UPS faults trip
// the delivery watchdog or the gauge-consistency check.
func expectedDetector(label string) string {
	switch {
	case label == "none":
		return ""
	case strings.HasPrefix(label, "monitor-"), label == "measurement-delay":
		return obs.DetectorSensor
	case strings.HasPrefix(label, "actuator-"), label == "server-crash":
		return obs.DetectorActuator
	case strings.HasPrefix(label, "ups-"):
		return obs.DetectorUPS
	}
	return ""
}

// firstExceed returns the first time ≥ fromS the series rises above thresh
// (NaN if it never does).
func firstExceed(series []float64, dt, fromS, thresh float64) float64 {
	for i, v := range series {
		if t := float64(i) * dt; t >= fromS && v > thresh {
			return t
		}
	}
	return math.NaN()
}

// firstMove returns the first time ≥ fromS the series moves by more than eps
// from one sample to the next (NaN if it never does).
func firstMove(series []float64, dt, fromS, eps float64) float64 {
	for i := 1; i < len(series); i++ {
		if t := float64(i) * dt; t >= fromS && math.Abs(series[i]-series[i-1]) > eps {
			return t
		}
	}
	return math.NaN()
}

// firstSwing returns the first time ≥ fromS the series differs by more than
// thresh from its value lagS earlier (NaN if it never does).
func firstSwing(series []float64, dt, fromS, lagS, thresh float64) float64 {
	lag := int(lagS / dt)
	for i := lag; i < len(series); i++ {
		if t := float64(i) * dt; t >= fromS && math.Abs(series[i]-series[i-lag]) > thresh {
			return t
		}
	}
	return math.NaN()
}

// firstEnergy returns the first time ≥ fromS the series (watts) has
// integrated to energyWs watt-seconds since fromS (NaN if it never does).
func firstEnergy(series []float64, dt, fromS, energyWs float64) float64 {
	var acc float64
	for i, w := range series {
		if t := float64(i) * dt; t >= fromS {
			if acc += w * dt; acc >= energyWs {
				return t
			}
		}
	}
	return math.NaN()
}

// exerciseS returns when an E18 fault first becomes observable — several
// faults are latent at onset and only manifest once the plant exercises the
// faulted path. The detection-latency budget runs from this moment:
//
//   - a delayed power monitor reads exactly like a live one until total
//     power actually moves across the delay window;
//   - a stuck or lagging actuator tracks perfectly until the schedule
//     reallocates frequencies away from where it is pinned (small dither
//     moves may not touch the faulted core, so the marker is the first
//     substantial mean-frequency move);
//   - a high-reading SoC gauge is consistent with physics until the battery
//     has delivered enough energy for the impossible-trajectory bound to
//     exceed the drift threshold.
//
// Everything else (guard-visible monitor faults, offline servers, a dead
// UPS discharge path mid-overload) is observable at onset.
func exerciseS(label string, res *sim.Result, scn sim.Scenario, onsetS float64) float64 {
	s, dt, cfg := &res.Series, scn.DtS, obs.DefaultDetectorConfig()
	switch label {
	case "measurement-delay":
		// Severity 8 = readings lag by 8 s; the detector's model-gap
		// threshold is the swing that makes the lag visible.
		return firstSwing(s.TotalW, dt, onsetS, 8, cfg.SensorGapW)
	case "actuator-stuck", "actuator-lag":
		return firstMove(s.FreqBatch, dt, onsetS, 0.04)
	case "ups-gauge-high":
		return firstEnergy(s.UPSW, dt, onsetS, cfg.UPSGaugeDriftSoC*3600*scn.UPS.CapacityWh)
	}
	return onsetS
}

// firstAlert returns the earliest AtS among alerts from the named detector
// (NaN when it never fired).
func firstAlert(alerts []obs.Alert, detector string) float64 {
	at := math.NaN()
	for _, a := range alerts {
		if a.Detector == detector && (math.IsNaN(at) || a.AtS < at) {
			at = a.AtS
		}
	}
	return at
}

// addCoverageRow scores one case: for expect == "none" the run must be
// alert-free; otherwise the expected detector must fire by deadlineS.
func addCoverageRow(t *Table, label, expect string, alerts []obs.Alert, onsetS, deadlineS float64) bool {
	if expect == "" {
		ok := len(alerts) == 0
		t.AddRow(label, "none", "-", "-", "-", ok, len(alerts))
		return ok
	}
	at := firstAlert(alerts, expect)
	ok := !math.IsNaN(at) && at <= deadlineS
	fired := "-"
	if !math.IsNaN(at) {
		fired = fmt.Sprintf("%.0f", at)
	}
	t.AddRow(label, expect, fmt.Sprintf("%.0f", onsetS), fired,
		fmt.Sprintf("%.0f", deadlineS), ok, len(alerts))
	return ok
}

// AlertCoverage is the observability acceptance experiment: every E18 fault
// class and every E19 network condition runs with the observability plane
// attached, and the table reports whether the expected anomaly detector
// fired within the latency budget — three control periods of fault onset
// for deterministic faults, anywhere in the run for the probabilistic
// loss rows (a 30% loss only expires a lease when three consecutive refresh
// grants happen to drop). The fault-free rows must stay silent: the same
// thresholds that catch every fault raise zero alerts on a clean run.
func AlertCoverage() (*Table, error) {
	t := &Table{
		ID:      "obs",
		Title:   "alert coverage: fault classes vs anomaly detectors (hardened policy, 15-min sprint)",
		Columns: []string{"case", "expect", "onset_s", "fired_s", "deadline_s", "ok", "alerts"},
	}
	allOK := true

	// E18: single-rack plant/sensor/actuator faults under the hardened policy.
	for _, r := range FaultRows() {
		scn := sim.DefaultScenario()
		scn.Faults = r.Plan
		plane := obs.NewPlane(0, obs.DefaultDetectorConfig())
		res, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{Obs: plane})
		if err != nil {
			return nil, fmt.Errorf("experiments: alert coverage %s: %w", r.Label, err)
		}
		var onset float64
		if len(r.Plan.Faults) > 0 {
			onset = r.Plan.Faults[0].OnsetS
		}
		deadline := exerciseS(r.Label, res, scn, onset) + detectBudgetS
		if !addCoverageRow(t, r.Label, expectedDetector(r.Label), plane.Alerts(), onset, deadline) {
			allOK = false
		}
	}

	// E19: network conditions on the linked feeder group with the lease client.
	for _, r := range PartitionRows() {
		cfg := linkedGroup()
		cfg.Scenario.Faults = r.Plan
		oc := obs.NewCluster(cfg.Rows[0].Racks, obs.DefaultDetectorConfig())
		cfg.Obs = []*obs.Cluster{oc}
		if _, err := hier.RunLinked(cfg); err != nil {
			return nil, fmt.Errorf("experiments: alert coverage %s: %w", r.Label, err)
		}
		var expect string
		var onset, deadline float64
		switch {
		case r.Label == "clean":
			// alert-free
		case strings.HasPrefix(r.Label, "loss-"):
			// Probabilistic: a lease only expires when three consecutive
			// refresh grants drop, so the latency budget is the whole run.
			expect = obs.DetectorRackDegraded
			onset = r.Plan.Faults[0].OnsetS
			deadline = cfg.Scenario.DurationS
		case strings.HasPrefix(r.Label, "partition-"):
			expect = obs.DetectorRackSilent
			onset = r.Plan.Faults[0].OnsetS
			deadline = onset + detectBudgetS
		default: // coordinator crash: racks degrade when their leases expire
			expect = obs.DetectorRackDegraded
			onset = r.Plan.Faults[0].OnsetS
			deadline = onset + detectBudgetS
		}
		if !addCoverageRow(t, r.Label, expect, oc.Alerts(), onset, deadline) {
			allOK = false
		}
	}

	t.Notes = append(t.Notes,
		"every row must show ok=true: detection within 3 control periods (12 s) of the fault becoming observable, loss rows within the run",
		"latent faults (delayed monitor, stuck/lagging actuator, high SoC gauge) start their budget at the first plant transient that exercises them, measured from the run's ground-truth series",
		"fault-free rows (none, clean) must report alerts=0 — the detector thresholds leave the clean sprint schedule silent",
	)
	if allOK {
		t.Notes = append(t.Notes, "confirmed: every fault class maps to its expected detector with zero false alerts")
	}
	return t, nil
}

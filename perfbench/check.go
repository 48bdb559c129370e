package main

import (
	"fmt"
	"math"
	"sort"

	"sprintcon/internal/hier"
	"sprintcon/internal/telemetry"
)

// check returns the correctness misses of one completed run (none when it
// passed): its summary result must equal the in-process replay's field by
// field, and so must its obs alerts; the followed stream must carry exactly
// one schema-2 record per control period with strictly increasing t; and
// the fault-free specs must show no breaker trips and no building trips.
// When the replay was traced, sprintd's run registry must also match the
// replay's.
func check(o *runObs, ref *replayOut, cfg hier.Config) []string {
	var miss []string
	res, ok := o.summary["result"]
	if !ok {
		return append(miss, "summary carries no result")
	}
	if d := diff("result", res, ref.result); d != "" {
		miss = append(miss, "summary differs from the in-process replay: "+d)
	}
	doc, _ := res.(map[string]any)
	for _, k := range []string{"cb_trips", "building_trips"} {
		if v, _ := doc[k].(float64); v != 0 {
			miss = append(miss, fmt.Sprintf("%s = %g on a fault-free spec", k, v))
		}
	}
	if !o.spec.linked() {
		return miss
	}
	if d := diff("alerts", o.alerts, ref.alerts); d != "" {
		miss = append(miss, "obs alerts differ from the in-process replay: "+d)
	}
	for _, k := range []string{"hier_cb_trips_total", "hier_building_trips"} {
		if v, ok := o.prom[k]; !ok || v != 0 {
			miss = append(miss, fmt.Sprintf("run metric %s = %g (present %v), want 0", k, v, ok))
		}
	}
	if ref.registry != nil {
		miss = append(miss, registryMisses(o.prom, ref.registry)...)
	}

	want := controlPeriods(cfg)
	if len(o.records) != want {
		miss = append(miss, fmt.Sprintf("stream carried %d records, want one per control period: %d", len(o.records), want))
	}
	if ref.registry != nil && ref.decisions00 != int64(want) {
		miss = append(miss, fmt.Sprintf("replay's rack (0,0) emitted %d records, want %d", ref.decisions00, want))
	}
	period := cfg.SprintCon.ControlPeriodS
	for i, r := range o.records {
		if r.schema != telemetry.DecisionSchemaVersion {
			miss = append(miss, fmt.Sprintf("record %d has schema_version %d", i, r.schema))
			break
		}
		if i > 0 && math.Abs(r.t-o.records[i-1].t-period) > 1e-9 {
			miss = append(miss, fmt.Sprintf("record %d at t=%g follows t=%g; want one record per %g s period, increasing",
				i, r.t, o.records[i-1].t, period))
			break
		}
	}
	return miss
}

// registryMisses compares sprintd's run registry, as served on
// /api/v1/runs/{id}/metrics, with the replay's.
func registryMisses(prom map[string]float64, snap telemetry.Snapshot) []string {
	var miss []string
	for _, p := range snap {
		names := map[string]float64{p.Name: p.Value}
		if p.Kind == telemetry.KindHistogram {
			names = map[string]float64{p.Name + "_sum": p.Value, p.Name + "_count": float64(p.Count)}
		}
		for name, want := range names {
			got, ok := prom[name]
			if !ok || !(got == want || (math.IsNaN(got) && math.IsNaN(want))) {
				miss = append(miss, fmt.Sprintf("run metric %s = %g (present %v), replay has %g", name, got, ok, want))
			}
		}
	}
	if len(miss) > 3 {
		miss = append(miss[:3], fmt.Sprintf("and %d more run metrics differ", len(miss)-3))
	}
	return miss
}

// diff returns the first difference between two JSON-decoded documents as
// "path: a != b", or "" when they are equal.
func diff(path string, a, b any) string {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: object != %T", path, b)
		}
		keys := make([]string, 0, len(av)+len(bv))
		for k := range av {
			keys = append(keys, k)
		}
		for k := range bv {
			if _, ok := av[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := diff(path+"."+k, av[k], bv[k]); d != "" {
				return d
			}
		}
		return ""
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Sprintf("%s: array of %d != %v", path, len(av), b)
		}
		for i := range av {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if a != b {
		return fmt.Sprintf("%s: %v != %v", path, a, b)
	}
	return ""
}

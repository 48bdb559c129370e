// Command bench runs SprintCon's pinned performance scenarios and writes a
// BENCH_<date>.json data point, so the repository's performance trajectory
// is measured, not asserted. It optionally compares the run against a
// committed baseline and exits non-zero on regression (the CI bench-check
// job).
//
// Every run here is timed; the deterministic values a scenario reports
// (sweep counts, bit-identity, span coverage, degraded seconds) are what
// those timed runs yield for free. Contracts that need a run of their own —
// zero allocations per tick and per event, bounded QP effort per control
// period, serial ≡ parallel fan-out — live in the Go tests that own them
// (TestTickPathZeroAlloc, TestEventEngineZeroAllocsPerEvent,
// TestMPCSweepsPerSolveBounded, TestRunLinked(OneRow)ParallelMatchesSerial), so
// `go test` checks them at any core count.
//
// Scenarios:
//
//	qp_warm_vs_cold — MPC-shaped box QP, cold solve (no warm point) vs warm
//	                  re-solve of a perturbed problem (sweeps are
//	                  deterministic)
//	trace_overhead  — the steady-state SprintCon tick loop with the
//	                  observability plane detached vs attached: ns/tick on
//	                  each side and the on/off wall-time ratio
//	event_engine    — single-rack diurnal power-capping run through
//	                  RunWith (the discrete-event core) vs the Runner.Step
//	                  tick loop: bitwise identity, the in-process speedup,
//	                  and the fraction of plant ticks closed analytically
//	cluster_sweep   — 1000-rack day-long stepped-diurnal fleet on the
//	                  event core (the scale scenario): wall time of the
//	                  fleet, serial Runner.Step tick loop vs serial RunWith
//	                  on a rack subset (the ≥10× event-core speedup), and a
//	                  bit-identical check between the two at every control
//	                  period
//	cluster_link    — fault-free linked run (a one-row hier.RunLinked) vs
//	                  the same row as a static hier.RunSweep: the control
//	                  link's stepping overhead and the degraded-mode
//	                  seconds (must stay zero with no faults on the wire)
//	cluster_hier    — hierarchical building run (internal/hier): the linked
//	                  rows' wall time and per-level shadow-breaker record
//	                  (must stay zero on a clean network), and the sharded
//	                  static sweep's bit-identity and speedup over its
//	                  serial path
//
// Metric comparison rules against the baseline: deterministic metrics
// (bit_identical*, *_sweeps*, ticks_skipped_frac, degraded_s, feeder_trips)
// are held to tight bounds at any GOMAXPROCS; in-process speedup ratios
// (speedup_*) may not drop more than 20%; wall-clock metrics (*_ns) are
// informational unless -wall is given, since absolute times are
// machine-dependent. Every scenario records the GOMAXPROCS it ran under,
// and the timing-derived metrics (*_ns, speedup_*, *_overhead) of a
// scenario are skipped with a warning when it differs from the baseline's —
// wall-time ratios measured at different core counts are not comparable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"sprintcon/internal/core"
	"sprintcon/internal/hier"
	"sprintcon/internal/mathx"
	"sprintcon/internal/obs"
	"sprintcon/internal/qp"
	"sprintcon/internal/sim"
	"sprintcon/internal/workload"
)

const schemaVersion = "sprintcon-bench/v1"

// Scenario is one benchmark's result: a flat name → value metric map, plus
// the GOMAXPROCS it ran under (timing-derived metrics depend on it, so the
// comparator skips them across core counts).
type Scenario struct {
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the BENCH_<date>.json document.
type Report struct {
	Schema     string     `json:"schema"`
	Date       string     `json:"date"`
	Go         string     `json:"go"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Quick      bool       `json:"quick"`
	Scenarios  []Scenario `json:"scenarios"`
}

func main() {
	quick := flag.Bool("quick", false, "shorter scenarios for CI (compare only against a -quick baseline)")
	baselinePath := flag.String("baseline", "auto",
		"baseline JSON to compare against; \"auto\" picks bench/baseline-quick.json with -quick, bench/baseline.json otherwise (empty to skip)")
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	wall := flag.Bool("wall", false, "also enforce wall-clock (_ns) comparisons against the baseline")
	flag.Parse()

	rep := Report{
		Schema:     schemaVersion,
		Date:       time.Now().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}

	fmt.Println("bench: qp_warm_vs_cold")
	rep.Scenarios = append(rep.Scenarios, qpWarmVsCold())
	fmt.Println("bench: trace_overhead")
	rep.Scenarios = append(rep.Scenarios, traceOverhead(*quick))
	fmt.Println("bench: event_engine")
	rep.Scenarios = append(rep.Scenarios, eventEngine(*quick))
	fmt.Println("bench: cluster_sweep")
	rep.Scenarios = append(rep.Scenarios, clusterSweep(*quick))
	fmt.Println("bench: cluster_link")
	rep.Scenarios = append(rep.Scenarios, clusterLink(*quick))
	fmt.Println("bench: cluster_hier")
	rep.Scenarios = append(rep.Scenarios, clusterHier(*quick))

	for i := range rep.Scenarios {
		rep.Scenarios[i].GOMAXPROCS = rep.GOMAXPROCS
	}

	for _, s := range rep.Scenarios {
		fmt.Printf("%s:\n", s.Name)
		for _, k := range sortedKeys(s.Metrics) {
			fmt.Printf("  %-28s %v\n", k, s.Metrics[k])
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: wrote %s\n", path)

	bp := *baselinePath
	if bp == "auto" {
		if *quick {
			bp = "bench/baseline-quick.json"
		} else {
			bp = "bench/baseline.json"
		}
	}
	if bp != "" {
		if code := compare(rep, bp, *wall); code != 0 {
			os.Exit(code)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// qpWarmVsCold re-solves a perturbed MPC-shaped QP warm vs cold (no warm
// point, fresh workspace). Sweep counts are fully deterministic.
func qpWarmVsCold() Scenario {
	const n = 64
	h := mathx.NewMatrix(n, n)
	k := mathx.NewVector(n)
	for i := range k {
		k[i] = 9 + 0.1*float64(i%7)
	}
	h.OuterAdd(30, k, k)
	g := mathx.NewVector(n)
	lo := mathx.NewVector(n)
	hi := mathx.NewVector(n)
	for i := 0; i < n; i++ {
		h.Inc(i, i, 400)
		g[i] = -(4000 + 2500*float64(i%5)) * k[i]
		lo[i] = -1.6
		hi[i] = 0.4
	}
	p := qp.Problem{H: h, G: g, Lo: lo, Hi: hi}

	base, err := qp.Solve(p, qp.Options{MaxSweeps: 10000})
	if err != nil {
		fatal(err)
	}
	pert := p
	pert.G = g.Clone()
	for i := range pert.G {
		pert.G[i] *= 1.01
	}
	t0 := time.Now()
	cold, err := qp.Solve(pert, qp.Options{MaxSweeps: 10000})
	coldNs := time.Since(t0)
	if err != nil {
		fatal(err)
	}
	ws := qp.NewWorkspace(n)
	t0 = time.Now()
	warm, err := qp.Solve(pert, qp.Options{MaxSweeps: 10000, Warm: base.X, Ws: ws})
	warmNs := time.Since(t0)
	if err != nil {
		fatal(err)
	}
	return Scenario{Name: "qp_warm_vs_cold", Metrics: map[string]float64{
		"cold_sweeps":     float64(cold.Sweeps),
		"warm_sweeps":     float64(warm.Sweeps),
		"sweep_reduction": float64(cold.Sweeps) / math.Max(1, float64(warm.Sweeps)),
		"cold_ns":         float64(coldNs.Nanoseconds()),
		"warm_ns":         float64(warmNs.Nanoseconds()),
	}}
}

// traceOverhead measures what the observability plane costs on the tick
// path: the steady-state SprintCon tick loop (the one TestTickPathZeroAlloc
// holds to zero allocations), once with the plane disabled (a nil
// *obs.Plane) and once attached (span events, rollup pushes and detectors
// live). The on/off wall ratio is trace_overhead; both sides run in the same
// process, so the ratio survives machine changes.
func traceOverhead(quick bool) Scenario {
	run := func(plane *obs.Plane) (nsPerTick float64) {
		scn := sim.DefaultScenario()
		env, err := sim.BuildEnv(scn)
		if err != nil {
			fatal(err)
		}
		env.Obs = plane
		s := core.New(core.DefaultConfig())
		if err := s.Start(env, scn); err != nil {
			fatal(err)
		}
		snap := sim.Snapshot{Dt: scn.DtS, UPSSoC: env.UPS.SoC()}
		now := 0.0
		tick := func() {
			snap.Now = now
			snap.MeasuredTotalW = env.Rack.MeasuredPower()
			snap.CBPowerW = env.Rack.TruePower()
			s.Tick(env, snap)
			env.Rack.AdvanceBatch(scn.DtS, now)
			now += scn.DtS
		}
		for i := 0; i < 120; i++ {
			tick() // steady state: caches warm, buffers at capacity
		}
		n := 600
		if quick {
			n = 200
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tick()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	offNs := run(nil)
	onNs := run(obs.NewPlane(0, obs.DefaultDetectorConfig()))
	return Scenario{Name: "trace_overhead", Metrics: map[string]float64{
		"obs_off_ns":     offNs,
		"obs_on_ns":      onNs,
		"trace_overhead": onNs / math.Max(1, offNs),
	}}
}

// tickRun is the tick reference: the run driven tick by tick through
// Runner.Step, never opening a quiescent span. The event-core scenarios
// time and bit-compare RunWith against it.
func tickRun(scn sim.Scenario, p sim.Policy, opts sim.RunOptions) (*sim.Result, error) {
	r, err := sim.NewRunner(scn, p, opts)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Finish(), nil
}

// diurnalScenario builds the pinned event-engine workload: deterministic
// plant (no monitor noise, utilization jitter or ambient swing) under a
// stepped-diurnal demand trace whose plateau levels sit in the settling
// regime (the capped closed loop reaches an exact fixed point there; at
// lighter levels the quantized batch actuator hunts forever and the event
// engine honestly refuses to fast-forward). Rack index i offsets the seeds
// the way cluster and hier sweeps do.
func diurnalScenario(i int, durationS, plateauS float64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.DurationS = durationS
	scn.BurstDurationS = durationS
	scn.AmbientSwingC = 0
	scn.Rack.MonitorNoiseStd = 0
	scn.Rack.UtilJitterStd = 0
	scn.BatchSpecs = workload.SteadyStateSpecs()
	tr, err := workload.SteppedDiurnal([]float64{0.5, 0.62, 0.75, 0.55}, plateauS, durationS, scn.DtS)
	if err != nil {
		fatal(err)
	}
	scn.Trace = tr
	g := int64(i)
	scn.Interactive.Seed += g
	scn.Rack.Seed += g
	scn.Faults.Seed += g
	return scn
}

// noSprintConfig is the policy for the diurnal scenarios: classic power
// capping at the breaker rating, which is the regime where quiescent spans
// open (an active overload schedule keeps the plant moving).
func noSprintConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NoSprint = true
	return cfg
}

// seriesBitIdentical reports 1 when every recorded series column of the two
// results is bit-for-bit equal, else 0.
func seriesBitIdentical(a, b *sim.Result) float64 {
	x, y := &a.Series, &b.Series
	cols := [][2][]float64{
		{x.Time, y.Time}, {x.TotalW, y.TotalW}, {x.CBW, y.CBW},
		{x.UPSW, y.UPSW}, {x.PCbW, y.PCbW}, {x.PBatchW, y.PBatchW},
		{x.FreqInter, y.FreqInter}, {x.FreqBatch, y.FreqBatch},
		{x.SoC, y.SoC}, {x.Demand, y.Demand},
	}
	for _, c := range cols {
		if len(c[0]) != len(c[1]) {
			return 0
		}
		for i := range c[0] {
			if math.Float64bits(c[0][i]) != math.Float64bits(c[1][i]) {
				return 0
			}
		}
	}
	return 1
}

// eventEngine pins RunWith's discrete-event core against the Runner.Step
// tick loop on a single-rack diurnal run: bitwise identity of the recorded
// series, the in-process speedup, and the fraction of plant ticks the event
// core closed analytically.
func eventEngine(quick bool) Scenario {
	d1 := 7200.0
	if quick {
		d1 = 3600
	}
	cfg := noSprintConfig()

	scn := diurnalScenario(0, d1, 900)
	p := core.New(cfg)
	t0 := time.Now()
	tickRes, err := tickRun(scn, p, sim.RunOptions{})
	tickNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}
	p = core.New(cfg)
	t0 = time.Now()
	eventRes, err := sim.RunWith(scn, p, sim.RunOptions{})
	eventNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}

	totalTicks := scn.DurationS / scn.DtS
	return Scenario{Name: "event_engine", Metrics: map[string]float64{
		"bit_identical":      seriesBitIdentical(tickRes, eventRes),
		"speedup_event":      tickNs / math.Max(1, eventNs),
		"tick_ns":            tickNs,
		"event_ns":           eventNs,
		"spans":              float64(eventRes.Engine.Spans),
		"ticks_skipped_frac": float64(eventRes.Engine.TicksSkipped) / totalTicks,
	}}
}

// clusterSweep is the scale scenario: a 1000-rack day-long stepped-diurnal
// fleet (hourly plateaus) run rack-independent through RunWith on the worker
// pool. A rack subset runs serially through both the Runner.Step tick loop
// and RunWith for the in-process event-core speedup and a bit-identical
// check at every control period (the subset records every control boundary;
// the recorded P_cb/P_batch targets are the controller's decisions, so
// bitwise equality pins decision equivalence there).
func clusterSweep(quick bool) Scenario {
	racks, durationS, subset := 1000, 86400.0, 8
	if quick {
		racks, durationS, subset = 24, 7200.0, 2
	}
	const plateauS = 3600
	cfg := noSprintConfig()
	// Record every control-period boundary on the subset runs: with dt=1 s
	// and the 4 s control period, stride 4 lands every recorded tick on a
	// controller decision.
	ctlStride := int(cfg.ControlPeriodS / sim.DefaultScenario().DtS)

	bitIdentical := 1.0
	var tickNs, eventNs float64
	for i := 0; i < subset; i++ {
		scn := diurnalScenario(i, durationS, plateauS)
		t0 := time.Now()
		tickRes, err := tickRun(scn, core.New(cfg), sim.RunOptions{SeriesStride: ctlStride})
		tickNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			fatal(err)
		}
		t0 = time.Now()
		eventRes, err := sim.RunWith(scn, core.New(cfg), sim.RunOptions{SeriesStride: ctlStride})
		eventNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			fatal(err)
		}
		if seriesBitIdentical(tickRes, eventRes) == 0 {
			bitIdentical = 0
		}
	}

	// The full fleet, rack-independent on the worker pool, event core,
	// hourly series stride (memory stays bounded at building scale).
	jobs := make([]sim.Job, racks)
	for i := range jobs {
		jobs[i] = sim.Job{
			Key:      fmt.Sprintf("rack%d", i),
			Scenario: diurnalScenario(i, durationS, plateauS),
			Policy:   core.New(cfg),
			Opts:     sim.RunOptions{SeriesStride: 3600},
		}
	}
	t0 := time.Now()
	results, err := sim.RunManyOrdered(jobs, 0)
	fleetNs := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		fatal(err)
	}
	var spans, skipped int
	for _, r := range results {
		spans += r.Engine.Spans
		skipped += r.Engine.TicksSkipped
	}
	totalTicks := float64(racks) * durationS / sim.DefaultScenario().DtS

	return Scenario{Name: "cluster_sweep", Metrics: map[string]float64{
		"racks":              float64(racks),
		"bit_identical":      bitIdentical,
		"speedup_event":      tickNs / math.Max(1, eventNs),
		"tick_subset_ns":     tickNs,
		"event_subset_ns":    eventNs,
		"fleet_event_ns":     fleetNs,
		"spans":              float64(spans),
		"ticks_skipped_frac": float64(skipped) / totalTicks,
	}}
}

// clusterLink measures what the control link costs when the network is
// clean: the feeder group stepped through hier.RunLinked as a one-row
// building (transport, leases, heartbeats and coordinator in the loop every
// tick) vs the same row as a static hier.RunSweep. With no faults on the
// wire the link must be near-free — the overhead ratio is the regression
// gate — and every lease must renew on schedule (zero degraded seconds).
func clusterLink(quick bool) Scenario {
	// The group is a one-row building, auto-provisioned at its minimum
	// packing N·rated + ⌈N/3⌉·bonus.
	racks := 4
	hcfg := hier.DefaultConfig()
	if quick {
		racks = 2
		hcfg.Scenario.DurationS = 300
	}
	hcfg.Rows = []hier.RowConfig{{Racks: racks}}

	t0 := time.Now()
	if _, err := hier.RunSweep(hcfg); err != nil {
		fatal(err)
	}
	staticNs := float64(time.Since(t0).Nanoseconds())

	t0 = time.Now()
	run, err := hier.RunLinked(hcfg)
	if err != nil {
		fatal(err)
	}
	linkedNs := float64(time.Since(t0).Nanoseconds())
	res := run.Rows[0]

	return Scenario{Name: "cluster_link", Metrics: map[string]float64{
		"static_ns":     staticNs,
		"linked_ns":     linkedNs,
		"link_overhead": linkedNs / math.Max(1, staticNs),
		"degraded_s":    res.DegradedS(),
		"feeder_trips":  float64(res.FeederTrips),
	}}
}

// clusterHier measures the hierarchical control plane: the building run
// with linked rows (its wall time, plus the degraded seconds and per-level
// shadow-breaker record, which must stay zero on a clean network) and the
// row-sharded static sweep (bit-identity and the parallel speedup over the
// serial path).
func clusterHier(quick bool) Scenario {
	cfg := hier.DefaultConfig()
	if quick {
		cfg.Rows = []hier.RowConfig{{Racks: 4}, {Racks: 4}}
		cfg.Scenario.DurationS = 300
	}

	t0 := time.Now()
	linkedRes, err := hier.RunLinked(cfg)
	if err != nil {
		fatal(err)
	}
	linkedNs := float64(time.Since(t0).Nanoseconds())

	timeSweep := func(c hier.Config) (*hier.SweepResult, float64) {
		t0 := time.Now()
		res, err := hier.RunSweep(c)
		if err != nil {
			fatal(err)
		}
		return res, float64(time.Since(t0).Nanoseconds())
	}
	serialCfg := cfg
	serialCfg.Serial = true
	sweepSerialRes, sweepSerialNs := timeSweep(serialCfg)
	sweepParRes, sweepNs := timeSweep(cfg)

	trips := linkedRes.BuildingTrips
	for _, row := range linkedRes.Rows {
		trips += row.FeederTrips
	}

	return Scenario{Name: "cluster_hier", Metrics: map[string]float64{
		"hier_linked_ns":       linkedNs,
		"hier_sweep_ns":        sweepNs,
		"hier_sweep_serial_ns": sweepSerialNs,
		"speedup_sweep":        sweepSerialNs / math.Max(1, sweepNs),
		"bit_identical_sweep":  sweepEqual(sweepParRes, sweepSerialRes),
		"degraded_s":           linkedRes.DegradedS(),
		"feeder_trips":         float64(trips),
	}}
}

// sweepEqual returns 1 when every rack series of the two sharded sweeps is
// bit-for-bit equal, else 0.
func sweepEqual(p, q *hier.SweepResult) float64 {
	if len(p.Rows) != len(q.Rows) {
		return 0
	}
	for r := range p.Rows {
		if len(p.Rows[r]) != len(q.Rows[r]) {
			return 0
		}
		for j := range p.Rows[r] {
			a, b := p.Rows[r][j].Series, q.Rows[r][j].Series
			if len(a.TotalW) != len(b.TotalW) {
				return 0
			}
			for t := range a.TotalW {
				if a.TotalW[t] != b.TotalW[t] || a.CBW[t] != b.CBW[t] || a.SoC[t] != b.SoC[t] {
					return 0
				}
			}
		}
	}
	return 1
}

// loadBaseline reads a baseline report strictly: unknown fields are
// rejected and every parse error names the offending location, so a typo in
// a hand-edited baseline (a misspelled metric section, a stray comma) fails
// the gate loudly instead of silently comparing against zero values. The
// not-exists error passes through untouched for the caller's skip path.
func loadBaseline(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()

	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var base Report
	if err := dec.Decode(&base); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return Report{}, fmt.Errorf("baseline %s: byte %d: %v", path, syn.Offset, err)
		case errors.As(err, &typ):
			return Report{}, fmt.Errorf("baseline %s: field %q (byte %d): %v", path, typ.Field, typ.Offset, err)
		default:
			// DisallowUnknownFields errors already carry the field name.
			return Report{}, fmt.Errorf("baseline %s: %v", path, err)
		}
	}
	// One document per file: trailing content means a concatenated or
	// corrupt baseline.
	if dec.More() {
		return Report{}, fmt.Errorf("baseline %s: trailing data after the report document", path)
	}
	if base.Schema != schemaVersion {
		return Report{}, fmt.Errorf("baseline %s: schema %q, this binary writes %q", path, base.Schema, schemaVersion)
	}
	return base, nil
}

// compare checks the report against the baseline and returns 1 on
// regression. Rules by metric name:
//
//	bit_identical*        — may not drop below baseline
//	*sweeps* (not "spans", lower better) — may not exceed baseline × 1.2
//	speedup_*, sweep_reduction (higher better) — may not drop below × 0.8
//	ticks_skipped_frac (higher better) — may not drop below × 0.9 (the
//	                        event engine must keep closing spans)
//	*_overhead (in-process wall ratio, lower better) — may not exceed
//	                        × 1.3 (both sides measured in the same process,
//	                        so the ratio survives machine changes)
//	degraded_s, feeder_trips — may not exceed baseline (zero in the pinned
//	                        fault-free link scenario)
//	*_ns (wall clock)     — only with -wall: may not exceed × 1.2
//
// Deterministic metrics are compared at any GOMAXPROCS. The timing-derived
// ones (*_ns, speedup_*, *_overhead) of a scenario whose GOMAXPROCS differs
// from the baseline's are skipped with a warning: wall-time ratios measured
// at different core counts are not comparable, and holding them to the old
// bound would gate on the machine, not the code. (Baselines without
// per-scenario core counts — written before the field existed — compare
// every metric.)
func compare(rep Report, path string, wall bool) int {
	base, err := loadBaseline(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "bench: no baseline at %s; skipping comparison\n", path)
			return 0
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if base.Quick != rep.Quick {
		fmt.Fprintf(os.Stderr, "bench: baseline quick=%v but run quick=%v; skipping comparison (sweep counts are duration-dependent)\n", base.Quick, rep.Quick)
		return 0
	}

	baseScenarios := map[string]Scenario{}
	for _, s := range base.Scenarios {
		baseScenarios[s.Name] = s
	}
	regressions := 0
	for _, s := range rep.Scenarios {
		bs, ok := baseScenarios[s.Name]
		if !ok || bs.Metrics == nil {
			continue
		}
		otherCores := bs.GOMAXPROCS != 0 && bs.GOMAXPROCS != s.GOMAXPROCS
		for _, name := range sortedKeys(s.Metrics) {
			cur := s.Metrics[name]
			ref, ok := bs.Metrics[name]
			if !ok || (strings.HasSuffix(name, "_ns") && !wall) {
				continue
			}
			timed := strings.HasSuffix(name, "_ns") || strings.HasPrefix(name, "speedup") || strings.HasSuffix(name, "_overhead")
			if timed && otherCores {
				fmt.Fprintf(os.Stderr,
					"bench: WARNING %s/%s: baseline ran at GOMAXPROCS=%d, this run at %d; skipped (timing-derived, not comparable across core counts)\n",
					s.Name, name, bs.GOMAXPROCS, s.GOMAXPROCS)
				continue
			}
			bad := false
			var rule string
			switch {
			case strings.HasPrefix(name, "bit_identical"):
				bad = cur < ref
				rule = "must not drop"
			case strings.HasSuffix(name, "_ns"):
				bad = cur > ref*1.2
				rule = "wall clock >20% slower"
			case strings.Contains(name, "sweeps"):
				bad = cur > ref*1.2+1e-9
				rule = ">20% more solver work"
			case strings.HasPrefix(name, "speedup") || name == "sweep_reduction":
				bad = cur < ref*0.8
				rule = ">20% speedup loss"
			case name == "ticks_skipped_frac":
				bad = cur < ref*0.9
				rule = ">10% span-coverage loss"
			case strings.HasSuffix(name, "_overhead"):
				bad = cur > ref*1.3
				rule = ">30% overhead growth"
			case name == "degraded_s" || name == "feeder_trips":
				bad = cur > ref+1e-9
				rule = "must not exceed baseline"
			default:
				continue
			}
			if bad {
				fmt.Fprintf(os.Stderr, "bench: REGRESSION %s/%s: %.4g vs baseline %.4g (%s)\n",
					s.Name, name, cur, ref, rule)
				regressions++
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) against %s\n", regressions, path)
		return 1
	}
	fmt.Printf("bench: no regressions against %s\n", path)
	return 0
}

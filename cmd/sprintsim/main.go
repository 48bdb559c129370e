// Command sprintsim runs one sprinting scenario under a chosen policy and
// prints a summary plus (optionally) the per-tick time series as CSV.
//
// Usage:
//
//	sprintsim -policy sprintcon -deadline 720 -duration 900 [-csv out.csv]
//	sprintsim -policy sgct-v2 -fault ups-path-failure:100:500 -events
//	sprintsim -trace-jsonl decisions.jsonl -metrics-addr :9090 -hold
//	sprintsim -racks 4 -link -fault link-partition:10:690:1:0
//
// Policies: sprintcon, sprintcon-pi, sgct, sgct-v1, sgct-v2.
// The repeatable -fault flag injects runtime faults
// (kind:onset:duration[:severity[:server]]); -unhardened strips SprintCon's
// defenses to reproduce the paper-faithful fault-oblivious controller.
//
// Cluster mode: -racks N runs a feeder group of N SprintCon racks; -link
// puts the lease-based coordinator↔rack control link in the loop
// (DESIGN.md §12), which unlocks the link-scoped fault kinds
// (link-loss, link-delay, link-dup, link-partition, coordinator-crash);
// -naive-link swaps in the always-trust-last-grant strawman client and
// -feeder-budget sets the feeder rating (a linked run packs, and is scored,
// to the largest whole number of overload bonuses the rating funds, and
// prints both when they differ). Cluster mode prints a
// feeder/link summary; with -link it also takes -trace-spans and
// -metrics-addr (which adds a /status/cluster health document), but not the
// single-rack checkpoint/CSV/decision-trace flags.
//
// Observability: -trace-jsonl streams one structured decision record per
// control period; -trace-spans records the causal span trace (lease
// lifecycle, control periods) as JSONL and prints the anomaly detectors'
// alerts — -read-spans pretty-prints a recorded trace as a causal tree;
// -metrics-addr serves Prometheus /metrics, a /status JSON snapshot of the
// running simulation and net/http/pprof; -cpuprofile and -memprofile write
// pprof profiles of the run itself.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"

	"sprintcon/internal/baseline"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/cluster"
	"sprintcon/internal/core"
	"sprintcon/internal/faults"
	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/seriesio"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
	"sprintcon/internal/telemetry"
	"sprintcon/internal/workload"
)

// faultList collects repeated -fault flags into a fault plan.
type faultList struct {
	plan faults.Plan
}

func (l *faultList) String() string {
	if l == nil || l.plan.Empty() {
		return ""
	}
	return fmt.Sprintf("%d faults", len(l.plan.Faults))
}

func (l *faultList) Set(spec string) error {
	f, err := faults.Parse(spec)
	if err != nil {
		return err
	}
	l.plan.Faults = append(l.plan.Faults, f)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sprintsim: ")

	var (
		policyName = flag.String("policy", "sprintcon", "policy: sprintcon, sprintcon-pi, nosprint, sgct, sgct-v1, sgct-v2")
		deadline   = flag.Float64("deadline", 720, "batch deadline in seconds")
		duration   = flag.Float64("duration", 900, "sprint duration in seconds")
		csvPath    = flag.String("csv", "", "write the per-tick time series to this CSV file")
		seed       = flag.Int64("seed", 1, "interactive trace seed")
		jobs       = flag.Bool("jobs", false, "print per-job completion details")
		events     = flag.Bool("events", false, "print the run's structured event log")
		tracePath  = flag.String("trace", "", "replay an interactive demand trace from this CSV (time_s,demand_frac)")
		scenPath   = flag.String("scenario", "", "load the scenario from this JSON file (see -dump-scenario)")
		dumpScen   = flag.Bool("dump-scenario", false, "print the default scenario as JSON and exit")
		unhardened = flag.Bool("unhardened", false, "disable SprintCon's fault defenses (paper-faithful controller)")

		ckptPath  = flag.String("checkpoint", "", "persist control-state checkpoints to this file (atomic temp+rename)")
		ckptEvery = flag.Float64("checkpoint-every", 0, "checkpoint cadence in simulated seconds (0 = every tick)")
		restore   = flag.Bool("restore", false, "resume the run from the snapshot in -checkpoint instead of starting fresh")
		replay    = flag.String("replay", "", "re-drive the run from the -checkpoint snapshot and diff its decisions against this recorded -trace-jsonl file")

		racks        = flag.Int("racks", 0, "cluster mode: run this many racks on one feeder (0 = single rack)")
		linkOn       = flag.Bool("link", false, "cluster mode: run the lease-based control link instead of static phase offsets")
		naiveLink    = flag.Bool("naive-link", false, "cluster mode: always-trust-last-grant client (unsafe baseline; needs -link)")
		feederBudget = flag.Float64("feeder-budget", 0, "cluster mode: feeder rating in W (0 = rated sum plus funded overload slots)")
		linkSeed     = flag.Int64("link-seed", 0, "cluster mode: transport fault-randomness seed")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /status JSON, /status/obs health and /debug/pprof on this address (e.g. :9090)")
		traceJSONL  = flag.String("trace-jsonl", "", "write one JSON decision record per control period to this file")
		traceSpans  = flag.String("trace-spans", "", "write the run's causal span trace (JSONL) to this file; enables the observability plane")
		readSpans   = flag.String("read-spans", "", "print a recorded span trace as an indented causal tree and exit")
		holdServer  = flag.Bool("hold", false, "with -metrics-addr: keep serving after the run until interrupted")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile after the run to this file")
	)
	var flist faultList
	flag.Var(&flist, "fault", "inject a fault, kind:onset:duration[:severity[:server]] (repeatable); kinds: "+kindList())
	flag.Parse()

	if *dumpScen {
		if err := sim.DefaultScenario().WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *readSpans != "" {
		f, err := os.Open(*readSpans)
		if err != nil {
			log.Fatal(err)
		}
		spans, err := telemetry.ReadSpans(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		telemetry.FormatSpanTree(os.Stdout, spans)
		return
	}

	scn := flagScenario(*duration, *deadline, *seed)
	if *scenPath != "" {
		f, err := os.Open(*scenPath)
		if err != nil {
			log.Fatal(err)
		}
		scn, err = sim.ScenarioFromJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	if !flist.plan.Empty() {
		scn.Faults = flist.plan
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := workload.TraceFromCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		scn.Trace = tr
	}

	if *racks > 0 {
		if *csvPath != "" || *ckptPath != "" || *replay != "" || *traceJSONL != "" {
			log.Fatal("cluster mode (-racks) does not take -csv, -checkpoint, -replay or -trace-jsonl")
		}
		if (*metricsAddr != "" || *traceSpans != "") && !*linkOn {
			log.Fatal("cluster-mode -metrics-addr and -trace-spans ride the control link: give -link")
		}
		if *policyName != "sprintcon" {
			log.Fatalf("cluster mode runs the sprintcon policy per rack; -policy %s is single-rack only", *policyName)
		}
		err := runCluster(os.Stdout, scn, clusterOpts{
			racks: *racks, link: *linkOn, naive: *naiveLink, budgetW: *feederBudget, linkSeed: *linkSeed,
			unhardened: *unhardened, traceSpans: *traceSpans, metricsAddr: *metricsAddr, hold: *holdServer,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *linkOn || *naiveLink {
		log.Fatal("-link and -naive-link need cluster mode: give -racks")
	}

	policy, err := policyByName(*policyName, *unhardened)
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry wiring: everything below is opt-in and nil when unused, so
	// a plain run carries no instrumentation cost.
	var opts sim.RunOptions
	if *metricsAddr != "" || *traceJSONL != "" || *replay != "" {
		opts.Metrics = telemetry.NewRegistry()
	}
	var plane *obs.Plane
	if *traceSpans != "" || *metricsAddr != "" {
		plane = obs.NewPlane(0, obs.DefaultDetectorConfig())
		opts.Obs = plane
		if opts.Metrics != nil {
			plane.Bind(opts.Metrics, "obs_rack0_")
		}
	}

	// Crash safety: -checkpoint persists snapshots, -restore resumes from
	// the latest one (and keeps checkpointing over it, the crash-recovery
	// loop), -replay resumes and diffs the continuation's decisions
	// against a recorded trace instead of trusting it blindly.
	if *replay != "" && *traceJSONL != "" {
		log.Fatal("-replay records its own decision trace; drop -trace-jsonl")
	}
	if (*restore || *replay != "") && *ckptPath == "" {
		log.Fatal("-restore and -replay resume from a snapshot: give its file with -checkpoint")
	}
	if *restore || *replay != "" {
		sp, err := checkpoint.ReadFile(*ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Resume = sp
		fmt.Printf("resuming from %s (t=%.0f s, step %d)\n", *ckptPath, sp.SimTimeS, sp.Step)
	}
	if *ckptPath != "" && *replay == "" {
		opts.Checkpoint = &sim.CheckpointOptions{
			Store:  checkpoint.NewFileStore(*ckptPath),
			EveryS: *ckptEvery,
		}
	}
	var replayBuf *bytes.Buffer
	var recorded []telemetry.Decision
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		recorded, err = telemetry.ReadDecisions(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		replayBuf = &bytes.Buffer{}
		opts.Decisions = telemetry.NewDecisionSink(replayBuf)
	}
	var traceFile *os.File
	if *traceJSONL != "" {
		traceFile, err = os.Create(*traceJSONL)
		if err != nil {
			log.Fatal(err)
		}
		opts.Decisions = telemetry.NewDecisionSink(traceFile)
	}
	var stopServer func() error
	if *metricsAddr != "" {
		opts.Status = telemetry.NewRunStatus()
		var extra []telemetry.Endpoint
		if plane != nil {
			extra = append(extra, telemetry.Endpoint{Path: "/status/obs", Doc: func() any { return plane.Snapshot() }})
		}
		bound, stop, err := telemetry.Serve(*metricsAddr, telemetry.Handler(opts.Metrics, opts.Status, extra...))
		if err != nil {
			log.Fatal(err)
		}
		stopServer = stop
		fmt.Printf("serving /metrics, /status, /debug/pprof on http://%s\n", bound)
	}
	stopCPUProfile := func() error { return nil }
	if *cpuProfile != "" {
		stopCPUProfile, err = telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
	}

	res, err := sim.RunWith(scn, policy, opts)
	// The profile covers the run only, not report writing or -hold idling.
	if perr := stopCPUProfile(); perr != nil {
		log.Print(perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *memProfile != "" {
		if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
			log.Fatal(err)
		}
	}

	if traceFile != nil {
		// Surface sink write errors and the Close error: a silently
		// truncated trace is worse than no trace.
		if err := opts.Decisions.Err(); err != nil {
			log.Fatalf("decision trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("decision trace: %v", err)
		}
		fmt.Printf("decision trace (%d records) written to %s\n", opts.Decisions.Count(), *traceJSONL)
	}

	if replayBuf != nil {
		if err := diffReplay(recorded, replayBuf); err != nil {
			log.Fatal(err)
		}
	}
	if plane != nil {
		if *traceSpans != "" {
			if err := writeSpanFile(*traceSpans, plane.Spans()); err != nil {
				log.Fatal(err)
			}
		}
		printAlerts(os.Stdout, plane.Alerts())
	}

	printSummary(res)
	if *events {
		for _, e := range res.Events {
			fmt.Println(" ", e)
		}
	}
	if *jobs {
		for _, j := range res.Jobs {
			status := "ok"
			if j.Missed {
				status = "MISSED"
			}
			fmt.Printf("  %-14s %-8s done=%7.1fs progress=%.2f %s\n",
				j.Name, j.Core, j.CompletionS, j.Progress, status)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		werr := seriesio.WriteCSV(f, &res.Series)
		// Close is checked before claiming success: WriteCSV flushes
		// through buffers whose write errors can surface only at Close,
		// and a deferred Close would have discarded them.
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("time series written to %s\n", *csvPath)
	}

	if stopServer != nil {
		if *holdServer {
			fmt.Println("run finished; still serving (interrupt to exit)")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}
		if err := stopServer(); err != nil {
			log.Print(err)
		}
	}
}

// diffReplay compares the decisions a resumed run produced against the
// tail of the recorded trace. Records are aligned by the first replayed
// decision's timestamp: the decision pending at the snapshot boundary is
// emitted one control period later in the original run but is not part of
// the restored state, so up to one recorded boundary record has no replay
// counterpart and is skipped (and reported). From there, every record must
// match byte for byte as canonical JSON.
func diffReplay(recorded []telemetry.Decision, buf *bytes.Buffer) error {
	replayed, err := telemetry.ReadDecisions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("replay trace: %w", err)
	}
	if len(replayed) == 0 {
		return fmt.Errorf("replay produced no decisions; the snapshot may be from the end of the run")
	}
	start := replayed[0].T
	var tail []telemetry.Decision
	for _, d := range recorded {
		if d.T >= start-1e-9 {
			tail = append(tail, d)
		}
	}
	n := len(tail)
	if len(replayed) < n {
		n = len(replayed)
	}
	for i := 0; i < n; i++ {
		a, err := json.Marshal(tail[i])
		if err != nil {
			return err
		}
		b, err := json.Marshal(replayed[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("replay diverged at decision %d (t=%.0f s):\n recorded: %s\n replayed: %s", i, tail[i].T, a, b)
		}
	}
	if len(tail) != len(replayed) {
		return fmt.Errorf("replay produced %d decisions, recorded trace has %d from t=%.0f s", len(replayed), len(tail), start)
	}
	fmt.Printf("replay: %d decisions from t=%.0f s match the recorded trace (%d earlier records outside the replayed window)\n",
		len(replayed), start, len(recorded)-len(tail))
	return nil
}

// writeSpanFile persists a span trace as JSONL and reports the count.
func writeSpanFile(path string, spans []telemetry.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := telemetry.WriteSpans(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("span trace: %w", werr)
	}
	fmt.Printf("span trace (%d spans) written to %s (inspect with -read-spans)\n", len(spans), path)
	return nil
}

// printAlerts lists the anomaly detectors' structured alerts.
func printAlerts(w io.Writer, alerts []obs.Alert) {
	if len(alerts) == 0 {
		fmt.Fprintln(w, "alerts:               none")
		return
	}
	fmt.Fprintf(w, "alerts:               %d\n", len(alerts))
	for _, a := range alerts {
		span := ""
		if a.SpanID != 0 {
			span = fmt.Sprintf(" span=%d", a.SpanID)
		}
		fmt.Fprintf(w, "  [t=%4.0fs] rack %d %s: %s%s\n", a.AtS, a.Rack, a.Detector, a.Detail, span)
	}
}

// flagScenario is the scenario the -duration, -deadline and -seed flags
// describe (the default scenario unless -scenario replaces it).
func flagScenario(durationS, deadlineS float64, seed int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.DurationS = durationS
	scn.BurstDurationS = durationS
	scn.BatchDeadlineS = deadlineS
	scn.Interactive.Seed = seed
	scn.Interactive.BurstEndS = durationS
	return scn
}

// clusterOpts carries the cluster-mode flags.
type clusterOpts struct {
	racks       int
	link, naive bool
	budgetW     float64
	linkSeed    int64
	unhardened  bool
	traceSpans  string
	metricsAddr string
	hold        bool
}

// runCluster executes the multi-rack feeder group and writes its summary
// to w: the static phase-offset schedule of cluster.Run by default, the
// lease-based control link with -link, run as a one-row hier building. The
// feeder is one row rated at -feeder-budget, or auto-provisioned at its
// minimum packing — every rack's rated draw plus ⌈N·overload/cycle⌉ funded
// overload bonuses — when the flag is zero. A linked run is scored against
// the budget the coordinator packs to, the largest whole number of bonuses
// the rating funds.
func runCluster(w io.Writer, scn sim.Scenario, o clusterOpts) error {
	hcfg := hier.DefaultConfig()
	hcfg.Rows = []hier.RowConfig{{Racks: o.racks, RatingW: o.budgetW}}
	hcfg.Scenario = scn
	hcfg.SprintCon.Harden.Disabled = o.unhardened
	hcfg.NaiveTrustLastGrant = o.naive
	hcfg.Seed = o.linkSeed

	if !o.link {
		cfg := cluster.DefaultConfig()
		cfg.NumRacks = o.racks
		cfg.Scenario = scn
		cfg.SprintCon = hcfg.SprintCon
		cfg.FeederBudgetW = o.budgetW
		if cfg.FeederBudgetW == 0 {
			a, err := hier.Allocate(hcfg)
			if err != nil {
				return err
			}
			cfg.FeederBudgetW = a.Rows[0].RatingW
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return err
		}
		printClusterSummary(w, "static offsets", cfg.FeederBudgetW, cfg.FeederBudgetW, res.Racks, res.AggregateW, nil)
		return nil
	}

	// The observability plane rides the link: spans need the lease grant IDs
	// and the health rollups need the per-rack planes RunLinked attaches.
	var oc *obs.Cluster
	if o.traceSpans != "" || o.metricsAddr != "" {
		oc = obs.NewCluster(o.racks, obs.DefaultDetectorConfig())
		hcfg.Obs = []*obs.Cluster{oc}
	}
	var stopServer func() error
	if o.metricsAddr != "" {
		reg := telemetry.NewRegistry()
		hcfg.Metrics = reg
		for i, p := range oc.Racks {
			p.Bind(reg, fmt.Sprintf("obs_rack%d_", i))
		}
		bound, stop, err := telemetry.Serve(o.metricsAddr, telemetry.Handler(reg, nil,
			telemetry.Endpoint{Path: "/status/cluster", Doc: oc.Doc}))
		if err != nil {
			return err
		}
		stopServer = stop
		fmt.Fprintf(w, "serving /metrics, /status/cluster, /debug/pprof on http://%s\n", bound)
	}

	res, err := hier.RunLinked(hcfg)
	if err != nil {
		return err
	}
	if o.traceSpans != "" {
		if err := writeSpanFile(o.traceSpans, oc.Spans()); err != nil {
			return err
		}
	}
	mode := "control link"
	if o.naive {
		mode = "control link (naive trust-last-grant)"
	}
	ra := res.Alloc.Rows[0]
	row := res.Rows[0]
	printClusterSummary(w, mode, ra.RatingW, ra.BudgetW, row.Racks, row.AggregateW, row)
	if oc != nil {
		printAlerts(w, oc.Alerts())
	}
	if stopServer != nil {
		if o.hold {
			fmt.Fprintln(w, "run finished; still serving (interrupt to exit)")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}
		return stopServer()
	}
	return nil
}

// printClusterSummary writes the feeder group's summary: the feeder
// record against budgetW (and the rating when it differs — a linked run
// packs to whole overload bonuses), the per-rack safety rollups, and for
// a linked run (linked non-nil) the link's accounting.
func printClusterSummary(w io.Writer, mode string, ratingW, budgetW float64, racks []*sim.Result, agg []float64, linked *hier.RowResult) {
	var trips, misses int
	var outageS float64
	for _, r := range racks {
		trips += r.CBTrips
		outageS += r.OutageS
		misses += r.DeadlineMisses
	}
	fmt.Fprintf(w, "racks:                %d (%s)\n", len(racks), mode)
	if ratingW != budgetW {
		fmt.Fprintf(w, "feeder rating:        %.0f W\n", ratingW)
	}
	fmt.Fprintf(w, "feeder budget:        %.0f W\n", budgetW)
	fmt.Fprintf(w, "aggregate peak/mean:  %.0f / %.0f W\n", stats.Max(agg), stats.Mean(agg))
	fmt.Fprintf(w, "over budget:          %.2f %% of ticks\n", 100*stats.FracAbove(agg, budgetW))
	fmt.Fprintf(w, "CB trips:             %d\n", trips)
	fmt.Fprintf(w, "outage:               %.0f s\n", outageS)
	fmt.Fprintf(w, "deadline misses:      %d\n", misses)
	if linked != nil {
		fmt.Fprintf(w, "feeder exceedance:    %.2f %% of ticks (beyond tracking tolerance)\n", 100*linked.FeederExceedFrac)
		fmt.Fprintf(w, "feeder trips:         %d\n", linked.FeederTrips)
		fmt.Fprintf(w, "degraded:             %.0f rack-seconds (resyncs: %d)\n", linked.DegradedS(), linked.Resyncs())
		tr := linked.Transport
		fmt.Fprintf(w, "grants sent/lost:     %d / %d (dup extras: %d)\n",
			tr.GrantsSent, tr.GrantsLost+tr.GrantsPartition, tr.GrantsDuped)
		fmt.Fprintf(w, "beats sent/lost:      %d / %d\n", tr.BeatsSent, tr.BeatsLost+tr.BeatsPartition)
		fmt.Fprintf(w, "coordinator:          %d grants, %d probes, %d repacks, %d presumed-degraded\n",
			linked.Coord.Grants, linked.Coord.Probes, linked.Coord.Repacks, linked.Coord.Presumed)
	}
	for i, r := range racks {
		line := fmt.Sprintf("  rack %d: trips=%d outage=%.0fs misses=%d avg_fi=%.3f avg_fb=%.3f",
			i, r.CBTrips, r.OutageS, r.DeadlineMisses, r.AvgFreqInter, r.AvgFreqBatch)
		if linked != nil {
			c := linked.Clients[i]
			line += fmt.Sprintf(" degraded=%.0fs resyncs=%d", c.DegradedS, c.Resyncs)
		}
		fmt.Fprintln(w, line)
	}
}

func kindList() string {
	var s string
	for i, k := range faults.Kinds() {
		if i > 0 {
			s += ", "
		}
		s += string(k)
	}
	return s
}

func policyByName(name string, unhardened bool) (sim.Policy, error) {
	cfg := core.DefaultConfig()
	cfg.Harden.Disabled = unhardened
	switch name {
	case "sprintcon":
		return core.New(cfg), nil
	case "sprintcon-pi":
		cfg.Controller = core.ControllerPI
		return core.New(cfg), nil
	case "nosprint":
		cfg.NoSprint = true
		return core.New(cfg), nil
	case "sgct":
		return baseline.New(baseline.SGCT), nil
	case "sgct-v1":
		return baseline.New(baseline.SGCTV1), nil
	case "sgct-v2":
		return baseline.New(baseline.SGCTV2), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func printSummary(r *sim.Result) {
	fmt.Printf("policy:               %s\n", r.Policy)
	fmt.Printf("avg freq interactive: %.3f\n", r.AvgFreqInter)
	fmt.Printf("avg freq batch:       %.3f\n", r.AvgFreqBatch)
	fmt.Printf("CB trips:             %d\n", r.CBTrips)
	fmt.Printf("outage:               %.0f s\n", r.OutageS)
	fmt.Printf("UPS DoD:              %.1f %%\n", 100*r.UPSDoD)
	fmt.Printf("UPS discharged:       %.1f Wh\n", r.UPSDischargedWh)
	fmt.Printf("jobs completed:       %d/%d (deadline misses: %d)\n",
		r.JobsCompletedOnce, r.JobsTotal, r.DeadlineMisses)
	fmt.Printf("normalized time use:  %.3f\n", r.NormalizedTimeUse())
	fmt.Printf("CB over budget:       %.2f %% of controlled ticks\n", 100*r.CBOverBudgetFrac)
	fmt.Printf("CB tracking error:    %.1f W\n", r.CBTrackingErrorW)
	fmt.Printf("energy total/CB/over: %.0f / %.0f / %.0f Wh\n",
		r.EnergyTotalWh, r.EnergyCBWh, r.EnergyCBOverWh)
}

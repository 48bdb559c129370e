// Command perfbench is the repository's end-to-end benchmark: it starts a
// real sprintd process, drives it over HTTP from this one client process
// (one connection for submissions, polls and summaries, one for a
// follow-mode decision stream), checks every run against an in-process
// replay of the same spec, and prints the metrics named in BENCHMARK.json.
//
// Run it from the repository root through the launcher, which builds
// sprintd and this client from source first:
//
//	bash perfbench/run.sh --workload linked_paper --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run. --repeat N runs the invocation N times with
// successive seeds and prints a steadiness report against the bounds in
// BENCHMARK.json. The last line of standard output is always one JSON
// object; README.md documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// runsPerLaunch is how many runs each sprintd process serves before it
	// is stopped: the first on a fresh process, the second on a warm one.
	// A fixed count per process keeps peak RSS comparable across runs.
	runsPerLaunch = 2
	// minSetupSamples is how many launches set-up time is the median of;
	// launches beyond the measured ones only start and stop the service.
	minSetupSamples = 15
	// seedCycle is how many distinct specs an invocation cycles through:
	// run i uses seed + i mod seedCycle. Each spec is then measured
	// several times, so one costly spec moves a median less, and is
	// replayed for the correctness check once; invocations with adjacent
	// seeds share three of their four specs.
	seedCycle = 4
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload name: linked_paper, linked_plateau or sweep_fleet")
	seed := fs.Int64("seed", 1, "workload seed; run i of the invocation uses spec seed seed + i mod 4")
	seconds := fs.Int("seconds", 40, "measured interval in seconds; no run starts after it")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	bin := fs.String("sprintd", "", "path of the pre-built sprintd binary")
	work := fs.String("work", ".bench_build", "directory for state dirs and span files")
	repeat := fs.Int("repeat", 0, "steadiness report: run the invocation this many times with successive seeds")
	benchJSON := fs.String("benchmark-json", "BENCHMARK.json", "BENCHMARK.json holding the metric bounds (for -repeat)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload linked_paper|linked_plateau|sweep_fleet, --seconds ≥ 1, --trace 0|1 and -sprintd")
		return 2
	}
	if *repeat > 0 {
		return steadiness(args, w.name, *seed, *repeat, *benchJSON)
	}
	inv := &invocation{w: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, bin: *bin, work: *work, cpu: benchCPU()}
	inv.pr = newProber(inv.cpu)
	if inv.traced {
		inv.tr = newTracer()
	}
	out, err := inv.run(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if inv.tr != nil {
		path, err := inv.tr.write(filepath.Join(*work, "trace"), fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// invocation is one benchmark run: a workload measured for a number of
// seconds, traced or not.
type invocation struct {
	w       benchWorkload
	seed    int64
	seconds int
	traced  bool
	bin     string
	work    string
	tr      *tracer
	cpu     int // vCPU sprintd and the probe are bound to (-1: unbound)
	pr      *prober

	runs  []*runObs
	setup []float64 // seconds, one per launch
	rss   []float64 // bytes, VmHWM after each measured launch's runs
}

func (inv *invocation) run(ctx context.Context) (*result, error) {
	if err := os.MkdirAll(inv.work, 0o755); err != nil {
		return nil, err
	}
	if err := inv.measure(ctx); err != nil {
		return nil, err
	}
	for len(inv.setup) < minSetupSamples {
		if err := inv.launchOnly(ctx); err != nil {
			return nil, err
		}
	}

	// Correctness: replay each distinct spec in-process once, sprintd
	// stopped, and hold every run of it to that reference. Results do not
	// depend on timing, so one replay is the reference for all of them.
	type refKey struct {
		seed   int64
		traced bool
	}
	failed := 0
	refs := map[refKey]*replayOut{}
	var tracedRefs []*replayOut // distinct traced replays, in run order
	for _, o := range inv.runs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (%s) failed: %v\n", o.seq, o.id, o.err)
			failed++
			continue
		}
		cfg, err := o.spec.config()
		if err != nil {
			return nil, err
		}
		key := refKey{o.spec.Seed, o.traced}
		ref, ok := refs[key]
		if !ok {
			if o.traced {
				ref, err = replayTraced(o.spec, inv.w.journal, inv.tr, o.id)
			} else {
				ref, err = replayBare(o.spec)
			}
			if err != nil {
				return nil, fmt.Errorf("replay of run %s: %w", o.id, err)
			}
			refs[key] = ref
			if o.traced {
				tracedRefs = append(tracedRefs, ref)
			}
		}
		if misses := check(o, ref, cfg); len(misses) > 0 {
			failed++
			for _, m := range misses {
				fmt.Fprintf(os.Stderr, "perfbench: run %d (%s) incorrect: %s\n", o.seq, o.id, m)
			}
		}
	}
	out := &result{Correct: failed == 0, Attempted: len(inv.runs), Failed: failed}
	var rows []reportRow
	if inv.traced {
		out.Metrics, rows = inv.layerMetrics(tracedRefs)
	} else {
		out.Metrics, rows = inv.endToEnd()
	}
	printTable(os.Stdout, fmt.Sprintf("%s seed %d, %d runs, %d failed (failed_frac %.3g), trace %v",
		inv.w.name, inv.seed, out.Attempted, failed, float64(failed)/float64(out.Attempted), inv.traced), rows)
	if inv.traced {
		printSelfTimes(os.Stdout, tracedRefs)
	}
	return out, nil
}

// measure is the closed loop: launch sprintd, serve runsPerLaunch runs one
// at a time, stop it; repeat until the measured interval has passed. No
// run starts after the interval, so an invocation overruns it by at most
// one run.
func (inv *invocation) measure(ctx context.Context) error {
	start := time.Now()
	due := func() bool { return time.Since(start) >= time.Duration(inv.seconds)*time.Second }
	for launchN := 0; launchN == 0 || !due(); launchN++ {
		stateDir, err := inv.stateDir(launchN)
		if err != nil {
			return err
		}
		svc, setup, err := launch(ctx, inv.bin, stateDir, inv.cpu)
		if err != nil {
			return err
		}
		inv.setup = append(inv.setup, setup.Seconds())
		before, err := inv.pr.probe()
		if err != nil {
			svc.kill()
			return err
		}
		served := 0
		for ; served < runsPerLaunch && (served == 0 || !due()); served++ {
			o := &runObs{seq: len(inv.runs), traced: inv.traced && (launchN+served)%2 == 1}
			o.spec = inv.w.spec(inv.seed + int64(o.seq%seedCycle))
			poll := 10 * time.Millisecond
			if o.traced {
				poll = 5 * time.Millisecond
			}
			svc.drive(ctx, o, poll)
			after, err := inv.pr.probe()
			if err != nil {
				svc.kill()
				return err
			}
			o.probeS, before = (before+after)/2, after
			if o.err == nil {
				o.err = svc.collect(ctx, o, stateDir)
			}
			inv.runs = append(inv.runs, o)
			inv.clientSpans(o)
		}
		rss, rssErr := svc.peakRSSBytes()
		if err := svc.stop(); err != nil {
			return err
		}
		if rssErr != nil {
			return rssErr
		}
		// Peak RSS is compared across launches that served the same
		// number of runs.
		if served == runsPerLaunch || len(inv.rss) == 0 {
			inv.rss = append(inv.rss, rss)
		}
		if stateDir != "" {
			if err := os.RemoveAll(stateDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// launchOnly starts and stops sprintd once, for a set-up time sample.
func (inv *invocation) launchOnly(ctx context.Context) error {
	stateDir, err := inv.stateDir(len(inv.setup))
	if err != nil {
		return err
	}
	svc, setup, err := launch(ctx, inv.bin, stateDir, inv.cpu)
	if err != nil {
		return err
	}
	inv.setup = append(inv.setup, setup.Seconds())
	if err := svc.stop(); err != nil {
		return err
	}
	if stateDir != "" {
		return os.RemoveAll(stateDir)
	}
	return nil
}

// stateDir returns a fresh, empty state directory for journaled workloads
// ("" for in-memory ones).
func (inv *invocation) stateDir(n int) (string, error) {
	if !inv.w.journal {
		return "", nil
	}
	dir, err := filepath.Abs(filepath.Join(inv.work, fmt.Sprintf("state-%d-%d", os.Getpid(), n)))
	if err != nil {
		return "", err
	}
	return dir, os.RemoveAll(dir)
}

// clientSpans records the client's view of a traced run: submit, queue,
// first byte, each stream record, each status poll and the terminal
// state, all under the run's id.
func (inv *invocation) clientSpans(o *runObs) {
	if !o.traced || o.err != nil {
		return
	}
	tr, id := inv.tr, o.id
	root := tr.add(id, "run", 0, o.post, o.terminal, map[string]float64{"seq": float64(o.seq)})
	tr.add(id, "submit", root, o.post, o.accepted, nil)
	if sub, start, _, err := serverTimes(o.summary); err == nil {
		tr.add(id, "queue", root, sub, start, nil)
	}
	if o.spec.linked() {
		tr.add(id, "first_byte", root, o.post, o.streamOpen, nil)
	}
	for _, r := range o.records {
		tr.add(id, "record", root, r.at, r.at, map[string]float64{"t": r.t})
	}
	for _, p := range o.polls {
		tr.add(id, "status", root, p.sent, p.recv, map[string]float64{"step": float64(p.step)})
	}
	tr.add(id, "terminal", root, o.terminal, o.terminal, nil)
}

// serverTimes reads submitted, started and finished from a run summary.
func serverTimes(sum map[string]any) (submitted, started, finished time.Time, err error) {
	get := func(k string) time.Time {
		s, _ := sum[k].(string)
		t, e := time.Parse(time.RFC3339Nano, s)
		if e != nil && err == nil {
			err = fmt.Errorf("summary %s: %w", k, e)
		}
		return t
	}
	return get("submitted"), get("started"), get("finished"), err
}

// ok returns the runs that completed without a service-side failure.
func (inv *invocation) ok(pred func(*runObs) bool) []*runObs {
	var out []*runObs
	for _, o := range inv.runs {
		if o.err == nil && pred(o) {
			out = append(out, o)
		}
	}
	return out
}

func runS(o *runObs) float64 { return o.terminal.Sub(o.post).Seconds() }

// endToEnd computes the end-to-end metrics from the untraced runs, each
// the median of its per-run values. The throughput timings (run_s, the
// rate, CPU time, and a sweep's time to its summary) are scaled to the
// reference host's speed by the probes around each run (calib.go); a
// linked run's first_decision_ms and setup_s, tens of milliseconds or
// less, did not follow the probe and are reported as measured. Every
// run's measured values and probe are printed.
func (inv *invocation) endToEnd() (map[string]metric, []reportRow) {
	runs := inv.ok(func(o *runObs) bool { return !o.traced })
	var rates, runTimes, firstMs, cpuUs []float64
	for _, o := range runs {
		rs, _ := o.spec.rackSeconds()
		// A sweep streams no decisions: the first result a client can
		// read is the terminal summary, a throughput timing like run_s.
		k := hostScale(o.probeS)
		first := 1000 * k * runS(o)
		if len(o.records) > 0 {
			first = ms(o.records[0].at.Sub(o.post))
		}
		rates = append(rates, rs/(k*runS(o)))
		runTimes = append(runTimes, k*runS(o))
		firstMs = append(firstMs, first)
		cpuUs = append(cpuUs, k*1e6*o.cpuS/rs)
		fmt.Printf("# run %d seed %d: run_s %.4f first_decision_ms %.3f cpu_s %.2f probe_ms %.3f\n",
			o.seq, o.spec.Seed, runS(o), first, o.cpuS, 1000*o.probeS)
	}
	rows := []reportRow{
		{"sim_rack_s_per_wall_s", median(rates), "rack-s/s", len(rates)},
		{"run_s", median(runTimes), "s", len(runTimes)},
		{"first_decision_ms", median(firstMs), "ms", len(firstMs)},
		{"cpu_us_per_rack_s", median(cpuUs), "us", len(cpuUs)},
		{"peak_rss_mb", median(inv.rss) / 1e6, "MB", len(inv.rss)},
		{"setup_s", median(inv.setup), "s", len(inv.setup)},
	}
	return toMetrics(rows), rows
}

// layerMetrics computes the per-layer metrics of the traced runs: the
// client's view of the sprintd layer, the replays' view of the layers
// below it from the traced replays (one per distinct spec), and the
// tracing's own overhead and closure.
func (inv *invocation) layerMetrics(replays []*replayOut) (map[string]metric, []reportRow) {
	traced := inv.ok(func(o *runObs) bool { return o.traced })
	plain := inv.ok(func(o *runObs) bool { return !o.traced })
	var submit, serverRun, overhead, lags, statusMs, journal, tracedRun, plainRun []float64
	var streamBytes, records float64
	for _, o := range traced {
		submit = append(submit, ms(o.accepted.Sub(o.post)))
		_, start, fin, err := serverTimes(o.summary)
		if err == nil {
			serverRun = append(serverRun, fin.Sub(start).Seconds())
			overhead = append(overhead, 1000*(runS(o)-fin.Sub(start).Seconds()))
		}
		for _, p := range o.polls {
			statusMs = append(statusMs, ms(p.recv.Sub(p.sent)))
		}
		journal = append(journal, float64(o.journalBytes))
		tracedRun = append(tracedRun, runS(o))
		if !o.spec.linked() || err != nil {
			continue
		}
		streamBytes += float64(o.streamBytes)
		records += float64(len(o.records))
		lags = append(lags, streamLags(o.marks(start, fin), o.arrivals())...)
	}
	for _, o := range plain {
		plainRun = append(plainRun, runS(o))
	}
	perStream := 0.0
	if records > 0 {
		perStream = streamBytes / records
	}
	rows := []reportRow{
		{"sprintd.submit_ms", median(submit), "ms", len(submit)},
		{"sprintd.server_run_s", median(serverRun), "s", len(serverRun)},
		{"sprintd.overhead_ms", median(overhead), "ms", len(overhead)},
		{"sprintd.stream_lag_ms_p50", zeroNaN(percentile(lags, 0.5)), "ms", len(lags)},
		{"sprintd.stream_lag_ms_p99", zeroNaN(percentile(lags, 0.99)), "ms", len(lags)},
		{"sprintd.stream_bytes_per_decision", perStream, "B", int(records)},
		{"sprintd.status_ms_p99", zeroNaN(percentile(statusMs, 0.99)), "ms", len(statusMs)},
		{"sprintd.journal_bytes_per_run", median(journal), "B", len(journal)},
	}
	// Replay figures: the median over the traced replays of each value.
	per := map[string][]float64{}
	for _, ref := range replays {
		for k, v := range ref.layer {
			per[k] = append(per[k], v)
		}
	}
	for _, l := range replayLayers {
		rows = append(rows, reportRow{l.name, median(per[l.name]), l.unit, len(per[l.name])})
	}
	rows = append(rows, reportRow{"trace.overhead_frac", median(tracedRun)/median(plainRun) - 1, "ratio", len(tracedRun) + len(plainRun)})
	all := toMetrics(rows)
	out := map[string]metric{}
	for _, name := range reportedLayers {
		out[name] = all[name]
	}
	return out, rows
}

// reportedLayers are the per-layer metrics the result line carries, as
// listed under per_layer in BENCHMARK.json: those that are non-zero on
// every workload. The table printed before the result line has them all.
var reportedLayers = []string{
	"sprintd.submit_ms", "sprintd.server_run_s", "sprintd.overhead_ms", "sprintd.status_ms_p99",
	"hier.setup_ms", "hier.row_imbalance",
	"sim.rack_ticks", "sim.tick_us", "sim.non_mpc_tick_us",
	"control.mpc_solves", "control.mpc_solve_us", "qp.sweeps_mean",
	"telemetry.decisions", "telemetry.decision_bytes",
	"trace.unattributed_frac",
}

// replayLayers lists the per-layer metrics the traced replay measures, in
// report order, with their units.
var replayLayers = []struct{ name, unit string }{
	{"hier.setup_ms", "ms"},
	{"hier.row_tick_us_mean", "us"},
	{"hier.row_tick_us_p99", "us"},
	{"hier.row_imbalance", "ratio"},
	{"hier.sweep_row_s", "s"},
	{"link.grants_sent", "count"},
	{"link.beats_sent", "count"},
	{"sim.rack_ticks", "count"},
	{"sim.tick_us", "us"},
	{"engine.spans", "count"},
	{"engine.ticks_skipped_frac", "ratio"},
	{"control.mpc_solves", "count"},
	{"control.mpc_solve_us", "us"},
	{"sim.non_mpc_tick_us", "us"},
	{"qp.sweeps_mean", "count"},
	{"qp.unconverged", "count"},
	{"qp.cache_hits", "count"},
	{"qp.cache_evictions", "count"},
	{"telemetry.decisions", "count"},
	{"telemetry.decision_bytes", "B"},
	{"obs.spans", "count"},
	{"obs.alerts", "count"},
	{"checkpoint.saves", "count"},
	{"checkpoint.bytes", "B"},
	{"trace.unattributed_frac", "ratio"},
}

// marks are the run's progress marks for stream-lag placement: the
// server-side start (no ticks), every status poll, and the finish (every
// tick).
func (o *runObs) marks(start, finish time.Time) []progressMark {
	m := []progressMark{{at: start, steps: 0}}
	for _, p := range o.polls {
		m = append(m, progressMark{at: start.Add(time.Duration(p.elapsedS * float64(time.Second))), steps: p.step})
	}
	cfg, err := o.spec.config()
	if err == nil {
		m = append(m, progressMark{at: finish, steps: int(cfg.Scenario.DurationS / cfg.Scenario.DtS)})
	}
	sort.SliceStable(m, func(i, j int) bool { return m[i].at.Before(m[j].at) })
	return m
}

// arrivals maps each stream record to the tick that emitted it.
func (o *runObs) arrivals() []arrival {
	cfg, err := o.spec.config()
	if err != nil {
		return nil
	}
	out := make([]arrival, len(o.records))
	for i, r := range o.records {
		out[i] = arrival{step: int(r.t/cfg.Scenario.DtS + 0.5), at: r.at}
	}
	return out
}

type reportRow struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

func toMetrics(rows []reportRow) map[string]metric {
	m := map[string]metric{}
	for _, r := range rows {
		m[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return m
}

func printTable(w *os.File, title string, rows []reportRow) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-36s %16s  %-9s %s\n", "metric", "value", "unit", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %16.6g  %-9s %d\n", r.name, r.value, r.unit, r.n)
	}
}

// printSelfTimes prints where the traced replays' wall time went, layer
// by layer, summed over the replays.
func printSelfTimes(w *os.File, replays []*replayOut) {
	total := map[string]float64{}
	var wall float64
	for _, ref := range replays {
		for k, v := range ref.self {
			total[k] += v
		}
		wall += ref.wallS
	}
	if wall == 0 {
		return
	}
	names := make([]string, 0, len(total))
	for k := range total {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time of the serial in-process replays (%.3f s wall)\n", wall)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %10.4f s %6.1f%%\n", k, total[k], 100*total[k]/wall)
	}
}

// --- steadiness report ---

type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the same invocation n times with seeds seed, seed+1, …
// and reports, per metric, the median, quartiles and spread of the n
// values next to the metric's bound, marking as unresolved each metric
// whose spread exceeds its bound. Every raw sample is in the output.
func steadiness(args []string, workload string, seed int64, n int, benchJSON string) int {
	bounds := map[string]float64{}
	if b, err := os.ReadFile(benchJSON); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", benchJSON, err)
			return 1
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	samples := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < n; k++ {
		child := append(withoutFlags(args, "repeat", "seed"), "--seed", fmt.Sprint(seed+int64(k)))
		res, err := runChild(self, child)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: invocation %d: %v\n", k+1, err)
			return 1
		}
		for name, m := range res.Metrics {
			samples[name] = append(samples[name], m.Value)
			units[name] = m.Unit
		}
	}
	type stat struct {
		Unit       string    `json:"unit"`
		Median     float64   `json:"median"`
		Q1         float64   `json:"q1"`
		Q3         float64   `json:"q3"`
		Spread     float64   `json:"spread"`
		Bound      float64   `json:"bound,omitempty"`
		Unresolved bool      `json:"unresolved"`
		Samples    []float64 `json:"samples"`
	}
	names := make([]string, 0, len(samples))
	for k := range samples {
		names = append(names, k)
	}
	sort.Strings(names)
	report := map[string]stat{}
	fmt.Printf("# steadiness of %s over %d invocations (seeds %d..%d)\n", workload, n, seed, seed+int64(n-1))
	fmt.Printf("%-36s %12s %12s %12s %8s %6s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "status")
	for _, name := range names {
		xs := samples[name]
		q1, q3 := quartiles(xs)
		st := stat{Unit: units[name], Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs), Samples: xs}
		status := "-"
		if b, ok := bounds[name]; ok {
			st.Bound = b
			st.Unresolved = !(st.Spread <= b)
			status = "ok"
			if st.Unresolved {
				status = "UNRESOLVED"
			} else if st.Spread > b/3 {
				status = "ok (above bound/3)"
			}
		}
		report[name] = st
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %8.4f %6.3g  %s\n", name, st.Median, q1, q3, st.Spread, st.Bound, status)
		fmt.Printf("  samples %s: %v\n", st.Unit, xs)
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "invocations": n, "metrics": report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runChild runs one invocation of this binary and returns its result line.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, errors.New("invocation reported incorrect or failed runs")
	}
	return &res, nil
}

// withoutFlags drops the named flags (and their values) from args.
func withoutFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasVal := strings.Cut(a, "=")
		drop := false
		for _, n := range names {
			drop = drop || name == n
		}
		if !drop {
			out = append(out, args[i])
			continue
		}
		if !hasVal && i+1 < len(args) {
			i++
		}
	}
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sprintcon/internal/obs"
	"sprintcon/internal/telemetry"
)

// newTestService starts a service with the given configuration and returns
// both the server (for drain etc.) and its HTTP front.
func newTestService(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs a spec and returns the response status, parsed body and the
// Retry-After header.
func submit(t *testing.T, ts *httptest.Server, spec string) (int, map[string]any, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	_ = json.Unmarshal(buf.Bytes(), &doc)
	return resp.StatusCode, doc, resp.Header.Get("Retry-After")
}

// waitState polls the run document until it reaches one of the states.
func waitState(t *testing.T, ts *httptest.Server, id string, states ...string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		var doc map[string]any
		if code := getJSON(t, ts.URL+"/api/v1/runs/"+id, &doc); code != http.StatusOK {
			t.Fatalf("run %s: status %d", id, code)
		}
		for _, want := range states {
			if doc["state"] == want {
				return doc
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %v", id, states)
	return nil
}

// longSpec is a linked run that cannot finish during a test on its own.
const longSpec = `{"rows": 1, "racks_per_row": 2, "duration_s": 864000}`

// TestAdmissionStormOnlyAcceptsOrRejects: a submission storm at twice the
// service's capacity yields only 202s (exactly capacity many) and 429s
// carrying Retry-After — nothing hangs, nothing 500s.
func TestAdmissionStormOnlyAcceptsOrRejects(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.MaxRuns = 1
	cfg.QueueDepth = 2
	_, ts := newTestService(t, cfg)

	capacity := cfg.MaxRuns + cfg.QueueDepth
	var accepted []string
	var rejected int
	for i := 0; i < 2*capacity; i++ {
		code, doc, retry := submit(t, ts, longSpec)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, doc["id"].(string))
		case http.StatusTooManyRequests:
			rejected++
			if retry == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submission %d: status %d, want 202 or 429", i, code)
		}
	}
	if len(accepted) != capacity || rejected != capacity {
		t.Fatalf("accepted %d rejected %d, want %d each", len(accepted), rejected, capacity)
	}

	// The rejection is visible on the service metrics, and /healthz lives.
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, "sprintd_runs_rejected_total "+itoa(rejected)) {
		t.Errorf("metrics lack the rejected counter:\n%s", grepLines(body, "sprintd_"))
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Cancel everything: the running run lands in canceled within its
	// control period; queued runs cancel immediately and never start.
	for _, id := range accepted {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range accepted {
		waitState(t, ts, id, "canceled")
	}
}

// TestCancelRunningWithinControlPeriod is the DELETE acceptance check: a
// long running run is asked to stop and reaches "canceled" promptly; the
// cancellation is a no-op on terminal runs.
func TestCancelRunningWithinControlPeriod(t *testing.T) {
	_, ts := newTestService(t, defaultServerConfig())
	code, doc, _ := submit(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := doc["id"].(string)

	// Let it make real progress first.
	deadline := time.Now().Add(time.Minute)
	for {
		var status map[string]any
		getJSON(t, ts.URL+"/api/v1/runs/"+id+"/status", &status)
		if rows, ok := status["rows"].([]any); ok && len(rows) > 0 {
			if step := rows[0].(map[string]any)["step"].(float64); step > 10 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("run never progressed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running: %d, want 202", resp.StatusCode)
	}
	start := time.Now()
	final := waitState(t, ts, id, "canceled")
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("cancellation took %s", wall)
	}
	if final["error"] != nil {
		t.Errorf("canceled run carries error %v", final["error"])
	}

	// DELETE on a terminal run is a no-op reporting the state.
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	var doc2 map[string]string
	_ = json.NewDecoder(resp2.Body).Decode(&doc2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || doc2["state"] != "canceled" {
		t.Fatalf("second DELETE: %d %v", resp2.StatusCode, doc2)
	}
}

// TestPanicIsolationKeepsServing: an injected panic fails only its run —
// with the stack in the error — while the service stays live, counts the
// recovery, and executes the next run normally. Both isolation layers are
// exercised: the linked path panics on a row worker deep in the
// fan-out, the sweep path on the supervisor goroutine itself.
func TestPanicIsolationKeepsServing(t *testing.T) {
	_, ts := newTestService(t, defaultServerConfig())

	code, doc, _ := submit(t, ts, `{"rows": 1, "racks_per_row": 2, "duration_s": 240, "chaos_panic_at_step": 50}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, ts, doc["id"].(string), "failed")
	errMsg, _ := final["error"].(string)
	if !strings.Contains(errMsg, "chaos: injected panic") || !strings.Contains(errMsg, "goroutine") {
		t.Fatalf("failed run error lacks panic value or stack: %.200s", errMsg)
	}

	code, doc, _ = submit(t, ts, `{"mode": "sweep", "rows": 1, "racks_per_row": 2, "duration_s": 240, "chaos_panic_at_step": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", code)
	}
	waitState(t, ts, doc["id"].(string), "failed")

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panics = %d", code)
	}
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, "sprintd_panics_recovered_total 2") {
		t.Errorf("metrics lack the panic counter:\n%s", grepLines(body, "sprintd_"))
	}

	// The service still executes runs.
	code, doc, _ = submit(t, ts, `{"rows": 1, "racks_per_row": 2, "duration_s": 240}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d", code)
	}
	waitState(t, ts, doc["id"].(string), "done")
}

// TestFirstDecisionHistogram: sprintd_first_decision_seconds observes
// every completed linked run exactly once, at its first lock-step tick,
// and no sweep, which streams no decisions.
func TestFirstDecisionHistogram(t *testing.T) {
	_, ts := newTestService(t, defaultServerConfig())
	specs := []string{
		`{"rows": 1, "racks_per_row": 2, "duration_s": 120}`,
		`{"rows": 3, "racks_per_row": 2, "duration_s": 120}`,
		`{"mode": "sweep", "rows": 1, "racks_per_row": 2, "duration_s": 120}`,
	}
	for _, spec := range specs {
		code, doc, _ := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d", spec, code)
		}
		waitState(t, ts, doc["id"].(string), "done")
	}
	body := getBody(t, ts.URL+"/metrics")
	if n := promValue(t, body, "sprintd_first_decision_seconds_count"); n != 2 {
		t.Errorf("first-decision count %g, want 2 (one per completed linked run)", n)
	}
	if sum := promValue(t, body, "sprintd_first_decision_seconds_sum"); !(sum > 0) {
		t.Errorf("first-decision sum %g, want > 0", sum)
	}
}

// TestFirstDecisionSkipsRecoveredRuns: a run recovered from the journal
// is not observed again, since its submission time would count the
// restart's downtime; the process that first ran it observed it once.
func TestFirstDecisionSkipsRecoveredRuns(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.StateDir = t.TempDir()
	s1, ts1 := newTestService(t, cfg)
	code, doc, _ := submit(t, ts1, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := doc["id"].(string)
	waitProgress(t, ts1, id)
	s1.drain(0)
	waitState(t, ts1, id, "interrupted")
	if n := promValue(t, getBody(t, ts1.URL+"/metrics"), "sprintd_first_decision_seconds_count"); n != 1 {
		t.Fatalf("first-decision count before the restart %g, want 1", n)
	}

	s2, ts2 := newTestService(t, cfg)
	t.Cleanup(func() { s2.drain(0) })
	waitProgress(t, ts2, id)
	if n := promValue(t, getBody(t, ts2.URL+"/metrics"), "sprintd_first_decision_seconds_count"); n != 0 {
		t.Errorf("first-decision count after the restart %g, want 0 (recovered runs are not observed)", n)
	}
}

// waitProgress waits until run id's row 0 has completed a lock-step tick
// in the service behind ts.
func waitProgress(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status map[string]any
		getJSON(t, ts.URL+"/api/v1/runs/"+id+"/status", &status)
		if rows, ok := status["rows"].([]any); ok && len(rows) > 0 {
			if step := rows[0].(map[string]any)["step"].(float64); step > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never progressed", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// promValue returns the value of the unlabelled series name in a
// Prometheus text exposition.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metrics lack %s:\n%s", name, grepLines(body, "sprintd_"))
	return 0
}

// TestRetentionEvictsOldestStreams: beyond the retention cap the oldest
// completed runs lose their decision-stream buffers, observability planes
// and per-run registry — /decisions, /spans and /metrics answer 404 with an
// eviction cause — while their summaries stay queryable.
func TestRetentionEvictsOldestStreams(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Retain = 1
	s, ts := newTestService(t, cfg)

	// A finalizer on each of the first run's decision logs and obs planes
	// counts what the collector frees once eviction drops them.
	var freed atomic.Int32
	watch := func(id string) int32 {
		s.mu.Lock()
		r := s.runs[id]
		s.mu.Unlock()
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, l := range r.streams {
			runtime.SetFinalizer(l, func(*telemetry.DecisionLog) { freed.Add(1) })
		}
		for _, oc := range r.obs {
			runtime.SetFinalizer(oc, func(*obs.Cluster) { freed.Add(1) })
		}
		return int32(len(r.streams) + len(r.obs))
	}
	var ids []string
	var watched int32
	for i := 0; i < 2; i++ {
		code, doc, _ := submit(t, ts, `{"rows": 1, "racks_per_row": 2, "duration_s": 240}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		id := doc["id"].(string)
		waitState(t, ts, id, "done")
		ids = append(ids, id)
		if i == 0 {
			watched = watch(id)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < watched && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := freed.Load(); watched == 0 || n != watched {
		t.Fatalf("%d of the evicted run's %d decision logs and obs planes freed; eviction must release them", n, watched)
	}

	for _, path := range []string{"/decisions?follow=0", "/spans", "/metrics"} {
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + ids[0] + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(buf.String(), "evicted") {
			t.Fatalf("evicted run %s: %d %s", path, resp.StatusCode, buf.String())
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+ids[1]+"/decisions?follow=0", nil); code != http.StatusOK {
		t.Fatalf("retained run decisions: %d", code)
	}
	var doc map[string]any
	getJSON(t, ts.URL+"/api/v1/runs/"+ids[0], &doc)
	if doc["state"] != "done" || doc["result"] == nil {
		t.Fatalf("evicted run lost its summary: %v", doc["state"])
	}
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, "sprintd_runs_evicted_total 1") {
		t.Errorf("metrics lack the eviction counter:\n%s", grepLines(body, "sprintd_"))
	}
}

// TestFinishedRunsKeepOnlyTheirSummary: with Retain 0, a finished run
// keeps its summary document and row counters and nothing it held to
// execute. Over eight runs of the default 4×16 linked building, and over
// eight sweeps of it, the heap in use after a collection grows by less
// than 50 KB a run.
func TestFinishedRunsKeepOnlyTheirSummary(t *testing.T) {
	const runs, perRunMax = 8, 50 << 10
	for _, spec := range []string{`{"duration_s": 300}`, `{"mode": "sweep", "duration_s": 300}`} {
		cfg := defaultServerConfig()
		cfg.Retain = 0
		s, ts := newTestService(t, cfg)
		finishOne := func() {
			code, doc, _ := submit(t, ts, spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit %s: %d", spec, code)
			}
			waitState(t, ts, doc["id"].(string), "done")
			s.wg.Wait() // the supervisor has evicted it and exited
		}
		finishOne() // first-use allocations are not per-run
		before := heapInuse()
		for i := 0; i < runs; i++ {
			finishOne()
		}
		per := (heapInuse() - before) / runs
		t.Logf("%s: %d bytes of heap kept per finished run", spec, per)
		if per >= perRunMax {
			t.Errorf("%s: %d bytes of heap kept per finished run, want < %d", spec, per, perRunMax)
		}
	}
}

// heapInuse returns the heap in use after a full collection.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

// TestDrainInterruptsAndRejects: drain stops admission (503), lets the
// grace expire, and lands in-flight runs in the resumable "interrupted"
// state.
func TestDrainInterruptsAndRejects(t *testing.T) {
	s, ts := newTestService(t, defaultServerConfig())
	code, doc, _ := submit(t, ts, longSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := doc["id"].(string)
	waitState(t, ts, id, "running")

	done := make(chan struct{})
	go func() { s.drain(50 * time.Millisecond); close(done) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var svc map[string]any
		getJSON(t, ts.URL+"/status", &svc)
		if svc["draining"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _, _ := submit(t, ts, longSpec); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned")
	}
	if state := waitState(t, ts, id, "interrupted"); state["error"] != nil {
		t.Errorf("interrupted run carries error %v", state["error"])
	}
}

// TestSpecValidationTable: absurd and malformed specs are rejected with
// 400 and a cause that names the offending field.
func TestSpecValidationTable(t *testing.T) {
	_, ts := newTestService(t, defaultServerConfig())
	huge := `{"row_configs": [` + strings.Repeat(`{"racks": 1},`, 1100)
	huge = huge[:len(huge)-1] + `]}`
	cases := []struct {
		name, spec, want string
	}{
		{"negative rows", `{"rows": -1}`, "rows is -1"},
		{"huge rows", `{"rows": 4096}`, "at most 1024 rows"},
		{"negative racks per row", `{"racks_per_row": -2}`, "racks_per_row is -2"},
		{"negative duration", `{"duration_s": -5}`, "duration_s is -5"},
		{"unbounded duration", `{"duration_s": 1e12}`, "at most 10000000"},
		{"negative chaos step", `{"chaos_panic_at_step": -1}`, "chaos_panic_at_step is -1"},
		{"oversized row_configs", huge, "at most 1024 rows"},
		{"zero-rack row", `{"row_configs": [{"racks": 0}]}`, "at least one"},
		{"negative row rating", `{"row_configs": [{"racks": 4, "rating_w": -10}]}`, "finite and non-negative"},
		{"underfunded building", `{"rows": 1, "racks_per_row": 4, "building_budget_w": 1}`, "cannot fund"},
		{"bad scenario document", `{"scenario": {"duration_s": -1}}`, "scenario"},
		{"bad mode", `{"mode": "turbo"}`, `mode \"turbo\"`},
		{"unknown field", `{"frequency_hz": 60}`, "unknown field"},
		{"malformed JSON", `{"rows": `, "decode spec"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: error %s lacks %q", tc.name, buf.String(), tc.want)
		}
	}
	// Nothing was admitted.
	var list map[string]any
	getJSON(t, ts.URL+"/api/v1/runs", &list)
	if runs := list["runs"].([]any); len(runs) != 0 {
		t.Fatalf("%d runs admitted by invalid specs", len(runs))
	}
}

// --- small helpers ---

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return buf.String()
}

// grepLines returns the lines of s containing the substring (test
// diagnostics).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

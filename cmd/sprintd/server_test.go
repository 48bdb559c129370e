package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprintcon/internal/hier"
	"sprintcon/internal/telemetry"
)

// newTestServer starts an in-memory service with the default
// configuration (no journal).
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := newServer(defaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

func postRun(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var doc map[string]any
		if code := getJSON(t, ts.URL+"/api/v1/runs/"+id, &doc); code != http.StatusOK {
			t.Fatalf("run %s: status %d", id, code)
		}
		switch doc["state"] {
		case "done":
			return doc
		case "failed":
			t.Fatalf("run %s failed: %v", id, doc["error"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish in time", id)
	return nil
}

// TestAPISmoke is the submit → stream → status round trip: a small linked
// run is submitted, its decision trace is streamed over chunked HTTP while
// the run executes, and the status endpoints serve live and final
// documents.
func TestAPISmoke(t *testing.T) {
	ts := newTestServer(t)

	id := postRun(t, ts, `{"rows": 2, "racks_per_row": 2, "duration_s": 240}`)

	// Stream the decision trace while the run executes: the response stays
	// open (chunked) until the run completes and the sink closes.
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/decisions?row=1&rack=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decisions: status %d", resp.StatusCode)
	}
	var decisions int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d telemetry.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision line %d: %v", decisions, err)
		}
		if d.Schema != telemetry.DecisionSchemaVersion {
			t.Fatalf("decision schema %d, want %d", d.Schema, telemetry.DecisionSchemaVersion)
		}
		decisions++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if decisions == 0 {
		t.Fatal("no decisions streamed")
	}

	doc := waitDone(t, ts, id)
	result, ok := doc["result"].(map[string]any)
	if !ok {
		t.Fatalf("done run carries no result: %v", doc)
	}
	if rows, ok := result["rows"].([]any); !ok || len(rows) != 2 {
		t.Fatalf("result rows = %v, want 2", result["rows"])
	}

	// Live status: every row must have reached the final step.
	var status map[string]any
	getJSON(t, ts.URL+"/api/v1/runs/"+id+"/status", &status)
	total := status["steps_total"].(float64)
	for i, row := range status["rows"].([]any) {
		if step := row.(map[string]any)["step"].(float64); step != total {
			t.Errorf("row %d step = %g, want %g", i, step, total)
		}
	}

	// Span trace and metrics are served per run.
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/spans?row=0", nil); code != http.StatusOK {
		t.Errorf("spans: status %d", code)
	}
	mresp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"hier_building_exceed_frac", "hier_row1_budget_w", "obs_row0_rack1_trip_margin_p50"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics exposition lacks %s", want)
		}
	}

	// Service-level documents.
	var svc map[string]any
	getJSON(t, ts.URL+"/status", &svc)
	if svc["service"] != "sprintd" {
		t.Errorf("/status service = %v", svc["service"])
	}
	var ch map[string]any
	if code := getJSON(t, ts.URL+"/status/cluster", &ch); code != http.StatusOK {
		t.Errorf("/status/cluster: status %d", code)
	} else if rows := ch["rows"].([]any); len(rows) != 2 {
		t.Errorf("/status/cluster rows = %d, want 2", len(rows))
	}
}

// A finished run's clock has stopped: two status reads 50 ms apart report
// the same elapsed_seconds, and it is the summary's wall_seconds, which is
// taken from the same start and finish times.
func TestFinishedRunElapsedStops(t *testing.T) {
	ts := newTestServer(t)
	id := postRun(t, ts, `{"rows": 1, "racks_per_row": 2, "duration_s": 120}`)
	doc := waitDone(t, ts, id)
	wall, ok := doc["wall_seconds"].(float64)
	if !ok {
		t.Fatalf("summary has no wall_seconds: %v", doc)
	}
	var elapsed [2]float64
	for i := range elapsed {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		var status map[string]any
		if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/status", &status); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if elapsed[i], ok = status["elapsed_seconds"].(float64); !ok {
			t.Fatalf("status has no elapsed_seconds: %v", status)
		}
	}
	if elapsed[0] != elapsed[1] || elapsed[0] != wall {
		t.Fatalf("elapsed_seconds %v then %v, summary wall_seconds %v: want all equal", elapsed[0], elapsed[1], wall)
	}
}

// TestAcceptance3Level is the acceptance topology: a building feeding four
// rows of sixteen racks runs under the service, streams decisions, and no
// level's shadow breaker sees an exceedance or a trip.
func TestAcceptance3Level(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rack service run skipped in -short mode")
	}
	ts := newTestServer(t)

	id := postRun(t, ts, `{"duration_s": 450}`) // defaults: linked, 4 rows × 16 racks
	doc := waitDone(t, ts, id)
	result := doc["result"].(map[string]any)
	if f := result["building_exceed_frac"].(float64); f != 0 {
		t.Errorf("building exceed frac = %g, want 0", f)
	}
	if n := result["building_trips"].(float64); n != 0 {
		t.Errorf("building trips = %g, want 0", n)
	}
	for i, row := range result["rows"].([]any) {
		m := row.(map[string]any)
		if f := m["exceed_frac"].(float64); f != 0 {
			t.Errorf("row %d exceed frac = %g, want 0", i, f)
		}
		if n := m["shadow_trips"].(float64); n != 0 {
			t.Errorf("row %d shadow trips = %g, want 0", i, n)
		}
	}

	// One decision stream spot check (non-follow replay after completion).
	resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/decisions?row=3&rack=15&follow=0")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(buf.String(), "\n"); lines == 0 {
		t.Error("rack (3,15) streamed no decisions")
	}
}

// TestSubmitValidation: malformed and inconsistent specs are rejected with
// 400 before any run starts.
func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		`{"mode": "nope"}`,
		`{"rows": 0, "racks_per_row": 0, "building_budget_w": 1}`, // cannot fund minimum packing
		`{"row_configs": [{"racks": -1}]}`,
		`{"unknown_field": true}`,
		`not json`,
	}
	for _, spec := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/r99", nil); code != http.StatusNotFound {
		t.Errorf("missing run: status %d, want 404", code)
	}
}

// TestSweepMode: a sweep run completes, reports per-level records, and
// correctly declines decision/span queries.
func TestSweepMode(t *testing.T) {
	ts := newTestServer(t)
	id := postRun(t, ts, `{"mode": "sweep", "rows": 2, "racks_per_row": 4, "duration_s": 240}`)
	doc := waitDone(t, ts, id)
	result := doc["result"].(map[string]any)
	if rows := result["rows"].([]any); len(rows) != 2 {
		t.Fatalf("sweep rows = %d, want 2", len(rows))
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/decisions", nil); code != http.StatusNotFound {
		t.Errorf("sweep decisions: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/spans", nil); code != http.StatusNotFound {
		t.Errorf("sweep spans: status %d, want 404", code)
	}
}

// TestLinkedRunKeepsNoSeries: a linked run's racks record their series at
// a stride past the run's length, so they hold tick 0 only (nothing the
// service serves reads them), and its summary is the one an in-process run
// that kept every rack's full series gives.
func TestLinkedRunKeepsNoSeries(t *testing.T) {
	const spec = `{"rows": 2, "racks_per_row": 2, "duration_s": 240}`
	var rs RunSpec
	if err := json.Unmarshal([]byte(spec), &rs); err != nil {
		t.Fatal(err)
	}
	cfg, err := rs.config()
	if err != nil {
		t.Fatal(err)
	}
	full, err := hier.RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(full.Rows[0].Racks[0].Series.CBW); n < 240 {
		t.Fatalf("reference run kept %d series samples, want the full series", n)
	}
	b, err := json.Marshal(linkedResult(full))
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestService(t, defaultServerConfig())
	id := postRun(t, ts, spec)
	doc := waitDone(t, ts, id)
	if !reflect.DeepEqual(doc["result"], want) {
		t.Fatalf("served result differs from the full-series run:\n got  %v\n want %v", doc["result"], want)
	}
	r, err := s.buildRun(rs, "linked")
	if err != nil {
		t.Fatal(err)
	}
	for row, rc := range r.cfg.Rows {
		for rack := 0; rack < rc.Racks; rack++ {
			if stride := r.cfg.RackOptions(row, rack).SeriesStride; stride <= r.stepsTotal {
				t.Fatalf("row %d rack %d records its series every %d ticks; a %d-tick run keeps more than tick 0", row, rack, stride, r.stepsTotal)
			}
		}
	}
}

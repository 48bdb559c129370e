package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sprintcon/internal/hier"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// keptBatch keeps n realistic 64-core records in a log and returns them
// as a reader's batch.
func keptBatch(t testing.TB, n int) telemetry.DecisionBatch {
	t.Helper()
	l := telemetry.NewDecisionLog(0)
	kept := telemetry.NewDecisionLogSink(l)
	d := &telemetry.Decision{Policy: "SprintCon", Mode: "normal",
		Alloc: &telemetry.AllocDecision{PCbW: 3200, PBatchW: 1291.584, ReserveW: 2148.87},
		MPC: &telemetry.MPCDecision{PfbW: 1319.88, TargetW: 1291.584, RefTrajW: make([]telemetry.F, 4),
			RWeights: make([]float64, 64), FreqsGHz: make([]telemetry.F, 64), KWPerGHz: 9.6525},
		Guard: &telemetry.GuardVerdict{Confidence: 1},
		UPS:   &telemetry.UPSDecision{RequestW: 238.25, SoC: 0.94}}
	for i := 0; i < n; i++ {
		d.T = float64(2 * i)
		for j := range d.MPC.RWeights {
			d.MPC.RWeights[j] = 1 / float64(i+j+3)
			d.MPC.FreqsGHz[j] = telemetry.F(0.4 + 0.4*float64((i+j)%5))
		}
		for j := range d.MPC.RefTrajW {
			d.MPC.RefTrajW[j] = telemetry.F(1291.584 + 1/float64(i+j+1))
		}
		kept.Emit(d)
	}
	if kept.Err() != nil {
		t.Fatal(kept.Err())
	}
	recs, _, _, _ := l.Next(0)
	return recs
}

// TestWriteDecisionsZeroAlloc: once the handler's buffer has grown,
// rendering a served batch allocates nothing, for any number of records.
func TestWriteDecisionsZeroAlloc(t *testing.T) {
	recs := keptBatch(t, 200)
	buf, err := writeDecisions(io.Discard, nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf, err = writeDecisions(io.Discard, buf, recs)
	})
	if err != nil || allocs != 0 {
		t.Fatalf("rendering %d records allocates %.1f times per batch (err %v), want 0", len(recs), allocs, err)
	}
}

// getBytes reads a whole response body.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return b
}

// TestServedDecisionsMatchEncoder: every rack's stream, followed live and
// replayed after the run, serves exactly the bytes the encoding sink
// writes for the same spec run in process (a replay spans several
// render-buffer flushes); under a retention bound that drops records,
// the replay serves a whole-line tail of them, and
// sprintd_decision_records_skipped_total counts every record produced but
// not served.
func TestServedDecisionsMatchEncoder(t *testing.T) {
	const spec = `{"rows": 2, "racks_per_row": 2, "duration_s": 240}`
	var rs RunSpec
	if err := json.Unmarshal([]byte(spec), &rs); err != nil {
		t.Fatal(err)
	}
	ref, err := rs.config()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int][]byte{}
	bufs := map[[2]int]*bytes.Buffer{}
	for row, rc := range ref.Rows {
		ref.Obs = append(ref.Obs, obs.NewCluster(rc.Racks, obs.DefaultDetectorConfig()))
		for rack := 0; rack < rc.Racks; rack++ {
			bufs[[2]int{row, rack}] = &bytes.Buffer{}
		}
	}
	ref.RackOptions = func(row, rack int) sim.RunOptions {
		return sim.RunOptions{Decisions: telemetry.NewDecisionSink(bufs[[2]int{row, rack}])}
	}
	if _, err := hier.RunLinked(ref); err != nil {
		t.Fatal(err)
	}
	for key, b := range bufs {
		want[key] = b.Bytes()
	}

	for _, max := range []int{defaultServerConfig().StreamMaxLines, 40} {
		cfg := defaultServerConfig()
		cfg.StreamMaxLines = max
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.handler())
		id := postRun(t, ts, spec)
		live := getBytes(t, ts.URL+"/api/v1/runs/"+id+"/decisions?row=1&rack=1")
		waitDone(t, ts, id)
		produced := bytes.Count(want[[2]int{1, 1}], []byte("\n"))
		served := bytes.Count(live, []byte("\n"))
		if w := want[[2]int{1, 1}]; max > bytes.Count(w, []byte("\n")) && !bytes.Equal(live, w) {
			t.Fatalf("followed stream: %d bytes, encoder wrote %d", len(live), len(w))
		}
		for key, w := range want {
			got := getBytes(t, fmt.Sprintf("%s/api/v1/runs/%s/decisions?row=%d&rack=%d&follow=0", ts.URL, id, key[0], key[1]))
			lines := bytes.Count(w, []byte("\n"))
			produced += lines
			served += bytes.Count(got, []byte("\n"))
			if lines <= max {
				if !bytes.Equal(got, w) {
					t.Fatalf("max %d: rack %v replay %d bytes, encoder wrote %d", max, key, len(got), len(w))
				}
				continue
			}
			if n := bytes.Count(got, []byte("\n")); n < max || n >= lines {
				t.Fatalf("max %d: rack %v replayed %d of %d records; want the bound to drop some", max, key, n, lines)
			}
			if !bytes.HasSuffix(w, got) || w[len(w)-len(got)-1] != '\n' {
				t.Fatalf("max %d: rack %v replay (%d bytes) is not a whole-line tail of the encoder's %d bytes", max, key, len(got), len(w))
			}
		}
		if got := s.mSkipped.Value(); got != float64(produced-served) {
			t.Fatalf("max %d: %v records counted skipped; %d produced, %d served", max, got, produced, served)
		}
		if max == 40 && produced == served {
			t.Fatal("max 40: the bound dropped nothing; the skip count went untested")
		}
		ts.Close()
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The service chaos harness (make chaos-service): submission storms mixed
// with invalid specs, cancellations, slow and disconnecting stream
// clients, and kill -9 + restart against a shared state dir. Invariants:
// the service never stops serving /healthz, every accepted run reaches a
// terminal state (no stuck runs), and no run record is ever lost.

// TestChaosServiceStorm floods a small service with concurrent
// submissions (half of them invalid), attaches stream clients that never
// read or disconnect immediately, and cancels a few runs mid-flight.
func TestChaosServiceStorm(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.MaxRuns = 2
	cfg.QueueDepth = 4
	cfg.Retain = 2
	cfg.StreamMaxLines = 64
	cfg.StreamWriteTimeout = 500 * time.Millisecond
	_, ts := newTestService(t, cfg)

	specs := []string{
		`{"rows": 1, "racks_per_row": 2, "duration_s": 240}`,
		`{"mode": "sweep", "rows": 1, "racks_per_row": 2, "duration_s": 240}`,
		`{"rows": 1, "racks_per_row": 2, "duration_s": 240, "chaos_panic_at_step": 30}`,
		`{"rows": -3}`, // invalid: rejected up front
		`{"bogus": 1}`, // invalid: unknown field
	}
	var (
		mu       sync.Mutex
		accepted []string
		wg       sync.WaitGroup
	)
	for round := 0; round < 6; round++ {
		for i, spec := range specs {
			wg.Add(1)
			go func(round, i int, spec string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Errorf("storm submit: %v", err)
					return
				}
				defer resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var doc map[string]any
					if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
						t.Errorf("storm decode: %v", err)
						return
					}
					mu.Lock()
					accepted = append(accepted, doc["id"].(string))
					mu.Unlock()
				case http.StatusBadRequest, http.StatusTooManyRequests:
				default:
					t.Errorf("storm round %d spec %d: status %d", round, i, resp.StatusCode)
				}
			}(round, i, spec)
		}
	}
	// A liveness prober runs throughout the storm. It also reads what
	// eviction drops (spans, per-run and service metrics, cluster health)
	// while the retention cap evicts finished runs: any answer but a 5xx.
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz during storm: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz during storm: %d", resp.StatusCode)
				return
			}
			paths := []string{"/metrics", "/status/cluster"}
			mu.Lock()
			for _, id := range accepted {
				paths = append(paths, "/api/v1/runs/"+id+"/spans", "/api/v1/runs/"+id+"/metrics")
			}
			mu.Unlock()
			for _, path := range paths {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("%s during storm: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("%s during storm: %d", path, resp.StatusCode)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Abusive stream clients against whatever got accepted: one connects
	// and never reads, one disconnects immediately.
	mu.Lock()
	ids := append([]string(nil), accepted...)
	mu.Unlock()
	addr := strings.TrimPrefix(ts.URL, "http://")
	var conns []net.Conn
	for i, id := range ids {
		if i >= 4 {
			break
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /api/v1/runs/%s/decisions?row=0&rack=0 HTTP/1.1\r\nHost: sprintd\r\n\r\n", id)
		if i%2 == 0 {
			conn.Close() // immediate disconnect
		} else {
			conns = append(conns, conn) // attached, never reads
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Cancel a couple of runs mid-storm.
	for i, id := range ids {
		if i%4 != 0 {
			continue
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// Every accepted run reaches a terminal state — none stuck, none lost.
	for _, id := range ids {
		waitState(t, ts, id, "done", "failed", "canceled")
	}
	var list map[string]any
	getJSON(t, ts.URL+"/api/v1/runs", &list)
	listed := map[string]bool{}
	for _, r := range list["runs"].([]any) {
		listed[r.(map[string]any)["id"].(string)] = true
	}
	for _, id := range ids {
		if !listed[id] {
			t.Errorf("accepted run %s lost from the registry", id)
		}
	}
	close(probeStop)
	probeWG.Wait()
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after storm = %d", code)
	}
}

// TestSprintdHelperProcess is not a test: it is the re-exec target the
// kill/restart chaos test spawns as a real sprintd process.
func TestSprintdHelperProcess(t *testing.T) {
	if os.Getenv("SPRINTD_CHAOS_HELPER") != "1" {
		t.Skip("spawned only as the kill/restart chaos helper")
	}
	flag.CommandLine = flag.NewFlagSet("sprintd", flag.ExitOnError)
	os.Args = []string{
		"sprintd",
		"-addr=127.0.0.1:0",
		"-state-dir=" + os.Getenv("SPRINTD_CHAOS_DIR"),
		"-checkpoint-every=300",
		"-drain-grace=200ms",
	}
	main()
	os.Exit(0)
}

// helperProc is one spawned sprintd instance.
type helperProc struct {
	cmd *exec.Cmd
	url string
}

// startHelper re-execs the test binary as a sprintd process on a free
// port against dir, and parses the bound address from its log output.
func startHelper(t *testing.T, dir string) *helperProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSprintdHelperProcess$")
	cmd.Env = append(os.Environ(), "SPRINTD_CHAOS_HELPER=1", "SPRINTD_CHAOS_DIR="+dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				host, _, _ := strings.Cut(rest, " ")
				addr <- host
			}
		}
	}()
	select {
	case a := <-addr:
		return &helperProc{cmd: cmd, url: "http://" + a}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("helper sprintd never reported its address")
		return nil
	}
}

func (h *helperProc) post(t *testing.T, spec string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(h.url+"/api/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}

func (h *helperProc) getJSON(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(h.url + path)
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

// TestChaosServiceKillRestart is the durability acceptance check: kill -9
// a sprintd with a terminal run and a checkpointed in-flight run, restart
// it on the same state dir, and every journaled run must come back — the
// finished one with its full summary, the interrupted one resuming from
// its latest row snapshots. A final SIGTERM must drain cleanly.
func TestChaosServiceKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level kill/restart chaos skipped in -short mode")
	}
	dir := t.TempDir()
	// CI points SPRINTD_CHAOS_STATE at a workspace path so the journal
	// survives the run and can be uploaded as an artifact on failure.
	if keep := os.Getenv("SPRINTD_CHAOS_STATE"); keep != "" {
		dir = filepath.Join(keep, "killrestart")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	h := startHelper(t, dir)
	defer func() { _ = h.cmd.Process.Kill() }()

	// One run to completion: its record and summary must survive kill -9,
	// down to the summary's bytes.
	code, doc := h.post(t, recordSpec)
	if code != http.StatusAccepted {
		t.Fatalf("short submit: %d", code)
	}
	shortID := doc["id"].(string)
	deadline := time.Now().Add(time.Minute)
	for {
		var d map[string]any
		h.getJSON(t, "/api/v1/runs/"+shortID, &d)
		if d["state"] == "done" {
			break
		}
		if d["state"] == "failed" || time.Now().After(deadline) {
			t.Fatalf("short run state %v", d["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := getBody(t, h.url+"/api/v1/runs/"+shortID)
	if !strings.Contains(before, `"result"`) {
		t.Fatalf("finished run serves no result section:\n%s", before)
	}

	// One run far too long to finish, with checkpoints every 300 simulated
	// seconds; wait for the first row snapshot to land on disk.
	code, doc = h.post(t, `{"rows": 1, "racks_per_row": 2, "duration_s": 864000}`)
	if code != http.StatusAccepted {
		t.Fatalf("long submit: %d", code)
	}
	longID := doc["id"].(string)
	ckpt := filepath.Join(dir, "runs", longID, "row0.ckpt")
	for deadline = time.Now().Add(time.Minute); ; {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no row checkpoint appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// kill -9: no drain, no journal flush beyond what is already atomic
	// on disk.
	if err := h.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = h.cmd.Wait()

	h2 := startHelper(t, dir)
	defer func() { _ = h2.cmd.Process.Kill() }()

	// Zero lost records: both runs are listed; the finished one serves its
	// journaled summary, the interrupted one was re-admitted.
	var list map[string]any
	h2.getJSON(t, "/api/v1/runs", &list)
	states := map[string]string{}
	for _, r := range list["runs"].([]any) {
		m := r.(map[string]any)
		states[m["id"].(string)] = m["state"].(string)
	}
	if states[shortID] != "done" {
		t.Fatalf("finished run recovered as %q, want done", states[shortID])
	}
	if s := states[longID]; s != "queued" && s != "running" {
		t.Fatalf("interrupted run recovered as %q, want queued or running", s)
	}
	if after := getBody(t, h2.url+"/api/v1/runs/"+shortID); after != before {
		t.Fatalf("finished run's summary changed across kill -9:\nbefore %s\nafter  %s", before, after)
	}
	// Decision streams are memory-only and must 404 with a cause, not hang.
	if code := h2.getJSON(t, "/api/v1/runs/"+shortID+"/decisions?follow=0", nil); code != http.StatusNotFound {
		t.Fatalf("restarted decisions: %d, want 404", code)
	}

	// The interrupted run resumes from its checkpoint: the first progress
	// it reports starts at the snapshot step, not zero.
	for deadline = time.Now().Add(time.Minute); ; {
		var status map[string]any
		h2.getJSON(t, "/api/v1/runs/"+longID+"/status", &status)
		if rows, ok := status["rows"].([]any); ok && len(rows) > 0 {
			if step := rows[0].(map[string]any)["step"].(float64); step > 0 {
				if step < 300 {
					t.Fatalf("resumed run reported step %g, want ≥ 300 (the checkpoint cadence)", step)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed run never progressed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Cancel it, then SIGTERM: the drain must exit the process cleanly.
	req, _ := http.NewRequest(http.MethodDelete, h2.url+"/api/v1/runs/"+longID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline = time.Now().Add(time.Minute); ; {
		var d map[string]any
		h2.getJSON(t, "/api/v1/runs/"+longID, &d)
		if d["state"] == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never canceled", longID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := h2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- h2.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("helper did not exit on SIGTERM")
	}

	// The canceled state survived the shutdown in the journal.
	b, err := os.ReadFile(filepath.Join(dir, "runs", longID, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "canceled" {
		t.Fatalf("journaled state %q, want canceled", rec.State)
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// runTimeout bounds one run from submission to terminal state; a run that
// takes longer is canceled and counts as failed.
const runTimeout = 90 * time.Second

// runObs is what the client saw of one run, plus what the post-run checks
// fetched.
type runObs struct {
	seq    int // run index i within the invocation (seed + i mod seedCycle)
	spec   runSpec
	traced bool
	id     string

	post, accepted time.Time // POST sent, 202 received
	streamOpen     time.Time // follow stream's response headers received
	terminal       time.Time // first response showing a terminal state
	records        []streamRecord
	streamBytes    int64
	polls          []statusPoll
	cpuS           float64 // sprintd CPU time from before POST to terminal
	probeS         float64 // host probe time, mean of the probes before and after

	summary      map[string]any // GET /api/v1/runs/{id} after the run
	alerts       any            // per-row obs alerts on /status/cluster (linked runs)
	prom         map[string]float64
	journalBytes int64

	// err is a service-side failure: rejected, failed or timed out, or a
	// broken stream. Correctness misses are recorded separately.
	err error
}

type streamRecord struct {
	t      float64
	schema int
	at     time.Time
}

type statusPoll struct {
	sent, recv time.Time
	elapsedS   float64
	step       int // row 0's completed lock-step ticks
	state      string
}

func terminalState(s string) bool { return s == "done" || s == "failed" || s == "canceled" }

// drive submits o.spec and follows the run to its terminal state. Linked
// runs are followed on the stream connection (row 0, rack 0) and are
// terminal once the stream ends; sweeps, which stream nothing, are polled
// every pollEvery. A traced linked run also polls /status every pollEvery
// while it streams, to place stream records on the server's timeline.
func (s *service) drive(ctx context.Context, o *runObs, pollEvery time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	cpu0, err := s.cpuSeconds()
	if err != nil {
		o.err = err
		return
	}
	body, err := json.Marshal(o.spec)
	if err != nil {
		o.err = err
		return
	}
	o.post = time.Now()
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	code, err := s.do(ctx, s.ctl, http.MethodPost, "/api/v1/runs", body, &acc)
	o.accepted = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	if err != nil {
		o.err = err
		return
	}
	o.id = acc.ID

	streamDone := make(chan error, 1)
	if o.spec.linked() {
		go func() { streamDone <- s.follow(ctx, o) }()
	}
	state := ""
	if !o.spec.linked() || o.traced {
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
	poll:
		for {
			p, err := s.status(ctx, o.id)
			if err != nil {
				o.err = err
				break
			}
			o.polls = append(o.polls, p)
			if terminalState(p.state) {
				state, o.terminal = p.state, p.recv
				break
			}
			select {
			case <-tick.C:
			case err := <-streamDone:
				streamDone <- err // the wait below collects it
				break poll
			case <-ctx.Done():
				o.err = ctx.Err()
				break poll
			}
		}
	}
	if o.spec.linked() {
		if err := <-streamDone; err != nil && o.err == nil {
			o.err = err
		}
	}
	// Linked runs close their streams only after landing in a terminal
	// state, so this loop normally reads it on its first request.
	for o.err == nil && !terminalState(state) {
		var sum map[string]any
		if _, err := s.do(ctx, s.ctl, http.MethodGet, "/api/v1/runs/"+o.id, nil, &sum); err != nil {
			o.err = err
			break
		}
		if st, _ := sum["state"].(string); terminalState(st) {
			state, o.terminal, o.summary = st, time.Now(), sum
			break
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			o.err = ctx.Err()
		}
	}
	if cpu1, err := s.cpuSeconds(); err == nil {
		o.cpuS = cpu1 - cpu0
	} else if o.err == nil {
		o.err = err
	}
	if o.err != nil {
		// Best effort: leave no run executing behind a failed one.
		_, _ = s.do(context.Background(), s.ctl, http.MethodDelete, "/api/v1/runs/"+o.id, nil, nil)
		return
	}
	if state != "done" {
		o.err = fmt.Errorf("run %s ended %q", o.id, state)
	}
}

// collect fetches what the correctness checks need once the run is over:
// the summary, the cluster alerts, the run's registry and journal size.
func (s *service) collect(ctx context.Context, o *runObs, stateDir string) error {
	if o.summary == nil {
		if _, err := s.do(ctx, s.ctl, http.MethodGet, "/api/v1/runs/"+o.id, nil, &o.summary); err != nil {
			return err
		}
	}
	if o.spec.linked() {
		var doc struct {
			Rows []struct {
				Alerts any `json:"alerts"`
			} `json:"rows"`
		}
		if _, err := s.do(ctx, s.ctl, http.MethodGet, "/status/cluster?run="+o.id, nil, &doc); err != nil {
			return err
		}
		alerts := make([]any, len(doc.Rows))
		for i, r := range doc.Rows {
			alerts[i] = r.Alerts
		}
		o.alerts = alerts
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/v1/runs/"+o.id+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("run metrics: %s", resp.Status)
	}
	if o.prom, err = parseProm(resp.Body); err != nil {
		return err
	}
	if stateDir != "" {
		ents, err := os.ReadDir(filepath.Join(stateDir, "runs", o.id))
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		for _, e := range ents {
			if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
				o.journalBytes += info.Size()
			}
		}
	}
	return nil
}

// follow reads row 0 rack 0's decision stream until the server ends it.
func (s *service) follow(ctx context.Context, o *runObs) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.base+"/api/v1/runs/"+o.id+"/decisions?row=0&rack=0&follow=1", nil)
	if err != nil {
		return err
	}
	resp, err := s.stream.Do(req)
	if err != nil {
		return fmt.Errorf("decision stream: %w", err)
	}
	defer resp.Body.Close()
	o.streamOpen = time.Now()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("decision stream: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Now()
			if line[len(line)-1] != '\n' {
				return errors.New("decision stream: truncated record")
			}
			var d struct {
				Schema int     `json:"schema_version"`
				T      float64 `json:"t"`
			}
			if err := json.Unmarshal(line, &d); err != nil {
				return fmt.Errorf("decision stream record %d: %w", len(o.records)+1, err)
			}
			o.records = append(o.records, streamRecord{t: d.T, schema: d.Schema, at: at})
			o.streamBytes += int64(len(line))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("decision stream: %w", err)
		}
	}
}

func (s *service) status(ctx context.Context, id string) (statusPoll, error) {
	var doc struct {
		State    string  `json:"state"`
		ElapsedS float64 `json:"elapsed_seconds"`
		Rows     []struct {
			Step int `json:"step"`
		} `json:"rows"`
	}
	p := statusPoll{sent: time.Now()}
	if _, err := s.do(ctx, s.ctl, http.MethodGet, "/api/v1/runs/"+id+"/status", nil, &doc); err != nil {
		return p, err
	}
	p.recv = time.Now()
	p.state, p.elapsedS = doc.State, doc.ElapsedS
	if len(doc.Rows) > 0 {
		p.step = doc.Rows[0].Step
	}
	return p, nil
}

// do sends one request and decodes a JSON response into out (when non-nil),
// returning the status code. A status of 400 or above is an error.
func (s *service) do(ctx context.Context, c *http.Client, method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

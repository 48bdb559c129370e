package main

import (
	"bytes"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// grabStore retains the first snapshot at or after a target simulation time
// (what an operator gets by copying the checkpoint file mid-run — Save
// replaces it atomically, so any copy is a valid snapshot).
type grabStore struct {
	at float64
	sp *checkpoint.Snapshot
}

func (g *grabStore) Save(s *checkpoint.Snapshot) (int, error) {
	if g.sp == nil && s.SimTimeS >= g.at {
		cp := *s
		g.sp = &cp
	}
	return 0, nil
}
func (g *grabStore) Latest() (*checkpoint.Snapshot, error) { return g.sp, nil }

// TestDiffReplay drives the -replay pipeline end to end: record a full
// run's decision trace, resume a second run from a mid-run snapshot, and
// require diffReplay to pass the matching continuation and fail a tampered
// one.
func TestDiffReplay(t *testing.T) {
	scn := sim.DefaultScenario()
	store := &grabStore{at: 450}
	var recordedBuf bytes.Buffer
	if _, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{
		Metrics:    telemetry.NewRegistry(),
		Decisions:  telemetry.NewDecisionSink(&recordedBuf),
		Checkpoint: &sim.CheckpointOptions{Store: store},
	}); err != nil {
		t.Fatal(err)
	}
	if store.sp == nil {
		t.Fatal("no mid-run snapshot captured")
	}
	recorded, err := telemetry.ReadDecisions(bytes.NewReader(recordedBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	replayed := telemetry.NewDecisionLog(0)
	if _, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{
		Metrics:   telemetry.NewRegistry(),
		Decisions: telemetry.NewDecisionLogSink(replayed),
		Resume:    store.sp,
	}); err != nil {
		t.Fatal(err)
	}

	if err := diffReplay(recorded, replayed); err != nil {
		t.Fatalf("faithful replay reported divergence: %v", err)
	}

	// A tampered recorded trace must be flagged.
	tampered := append([]telemetry.Decision(nil), recorded...)
	tampered[len(tampered)-1].Mode = "impossible"
	if err := diffReplay(tampered, replayed); err == nil {
		t.Fatal("diffReplay accepted a tampered trace")
	}
}

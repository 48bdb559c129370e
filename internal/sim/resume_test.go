package sim_test

import (
	"math"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/sim"
)

// grabStore retains the first snapshot at or after a target simulation time.
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

// TestResumeContinuationBitIdentical pins full-process resume
// (RunOptions.Resume, the -restore path): a run resumed from a mid-run
// snapshot must reproduce the uninterrupted run's tail bit-identically —
// plant, RNG streams, engine accumulators and controller all restored. The
// snapshot round-trips through the wire encoding first, so gob's bit-exact
// float64 handling is on the test path too.
func TestResumeContinuationBitIdentical(t *testing.T) {
	const resumeAt = 450
	scn := sim.DefaultScenario()
	store := &grabStore{at: resumeAt}
	full, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.sp == nil {
		t.Fatalf("no snapshot captured at t=%ds", resumeAt)
	}

	path := t.TempDir() + "/resume.ckpt"
	if _, err := checkpoint.NewFileStore(path).Save(store.sp); err != nil {
		t.Fatal(err)
	}
	sp, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	tail, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{Resume: sp})
	if err != nil {
		t.Fatal(err)
	}

	off := int(sp.Step)
	f := &full.Series
	r := &tail.Series
	if len(r.Time) != len(f.Time)-off {
		t.Fatalf("resumed series has %d ticks, want %d", len(r.Time), len(f.Time)-off)
	}
	cols := []struct {
		name       string
		full, tail []float64
	}{
		{"Time", f.Time, r.Time},
		{"TotalW", f.TotalW, r.TotalW},
		{"CBW", f.CBW, r.CBW},
		{"UPSW", f.UPSW, r.UPSW},
		{"PCbW", f.PCbW, r.PCbW},
		{"PBatchW", f.PBatchW, r.PBatchW},
		{"FreqInter", f.FreqInter, r.FreqInter},
		{"FreqBatch", f.FreqBatch, r.FreqBatch},
		{"SoC", f.SoC, r.SoC},
		{"Demand", f.Demand, r.Demand},
	}
	for _, c := range cols {
		for i := range c.tail {
			a, b := c.full[off+i], c.tail[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("%s diverged at t=%.0fs: full=%v resumed=%v", c.name, c.tail[0]+float64(i), a, b)
			}
		}
	}

	// The resumed run's event log continues sequence numbering where the
	// original stopped, and replays no pre-snapshot event.
	for _, e := range tail.Events {
		if e.T < sp.SimTimeS-1e-9 {
			t.Errorf("resumed run logged a pre-snapshot event: %v", e)
		}
		if e.Seq < sp.Plant.Engine.EventSeq {
			t.Errorf("resumed event %v reuses a sequence number below the snapshot's %d", e, sp.Plant.Engine.EventSeq)
		}
	}
	if full.CBTrips != tail.CBTrips {
		t.Errorf("trips diverged: full=%d resumed=%d", full.CBTrips, tail.CBTrips)
	}
}

// TestResumeRejectsMismatches pins the resume guardrails: a snapshot from a
// different scenario or policy must be refused, not silently restored into
// a plant it does not describe.
func TestResumeRejectsMismatches(t *testing.T) {
	scn := sim.DefaultScenario()
	store := &grabStore{at: 100}
	if _, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: store},
	}); err != nil {
		t.Fatal(err)
	}
	sp := store.sp

	t.Run("different-scenario", func(t *testing.T) {
		other := scn
		other.BatchDeadlineS = 600
		if _, err := sim.RunWith(other, core.New(core.DefaultConfig()), sim.RunOptions{Resume: sp}); err == nil {
			t.Fatal("resume accepted a snapshot from a different scenario")
		}
	})
	t.Run("different-policy", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.Controller = core.ControllerPI
		if _, err := sim.RunWith(scn, core.New(cfg), sim.RunOptions{Resume: sp}); err == nil {
			t.Fatal("resume accepted a snapshot from a different policy")
		}
	})
	t.Run("tampered-step", func(t *testing.T) {
		bad := *sp
		bad.Step += 3 // now disagrees with SimTimeS
		if _, err := sim.RunWith(scn, core.New(core.DefaultConfig()), sim.RunOptions{Resume: &bad}); err == nil {
			t.Fatal("resume accepted a snapshot whose step and time disagree")
		}
	})
}

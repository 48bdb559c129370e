package core

import (
	"math"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
)

// recordStore retains every snapshot, so a test can compare capture
// schedules across drivers and pick a resume point.
type recordStore struct {
	saves []checkpoint.Snapshot
}

func (r *recordStore) Save(s *checkpoint.Snapshot) (int, error) {
	r.saves = append(r.saves, *s)
	return 0, nil
}

func (r *recordStore) Latest() (*checkpoint.Snapshot, error) {
	if len(r.saves) == 0 {
		return nil, nil
	}
	last := r.saves[len(r.saves)-1]
	return &last, nil
}

// at returns the first snapshot captured at or after t, or nil.
func (r *recordStore) at(t float64) *checkpoint.Snapshot {
	for i := range r.saves {
		if r.saves[i].SimTimeS >= t {
			sp := r.saves[i]
			return &sp
		}
	}
	return nil
}

// A checkpointing run must be bit-identical to the Runner.Step oracle, keep
// opening spans (the capture-due barrier ends spans, it does not disable
// them), and capture the same snapshots at the same simulated times:
// captures execute only on real ticks, and the barrier forces a real tick
// wherever the oracle would have captured.
func TestEventEngineBitIdenticalWithCheckpointing(t *testing.T) {
	scn := quiesceScenario(t, 4*3600)
	cfg := DefaultConfig()
	cfg.NoSprint = true

	tickStore, eventStore := &recordStore{}, &recordStore{}
	tick := runTicks(t, scn, New(cfg), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: tickStore, EveryS: 600},
	})
	event, err := sim.RunWith(scn, New(cfg), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: eventStore, EveryS: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, tick, event)
	if event.Engine.Spans == 0 {
		t.Fatal("checkpointing disabled spans entirely")
	}
	if len(eventStore.saves) != len(tickStore.saves) {
		t.Fatalf("capture counts differ: event %d, tick %d", len(eventStore.saves), len(tickStore.saves))
	}
	for i := range tickStore.saves {
		a, b := &tickStore.saves[i], &eventStore.saves[i]
		if a.SimTimeS != b.SimTimeS || a.Step != b.Step {
			t.Fatalf("capture %d: tick at t=%g step=%d, event at t=%g step=%d",
				i, a.SimTimeS, a.Step, b.SimTimeS, b.Step)
		}
	}
	t.Logf("spans=%d skipped=%d captures=%d", event.Engine.Spans, event.Engine.TicksSkipped, len(eventStore.saves))
}

// Resuming from an oracle snapshot whose capture time falls inside one of
// the event run's quiescent spans must continue bit-identically — under the
// oracle and under RunWith, and matching the uninterrupted runs' tails.
// This is the portability guarantee: a snapshot is a plain state vector
// with no event-queue remnant (the queue is rebuilt from scratch at every
// span plan), so a tick-by-tick driver and the event core can each consume
// a snapshot the other produced.
func TestEventEngineResumeMidSpanBitIdentical(t *testing.T) {
	scn := quiesceScenario(t, 4*3600)
	cfg := DefaultConfig()
	cfg.NoSprint = true

	store := &recordStore{}
	full := runTicks(t, scn, New(cfg), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: store, EveryS: 300},
	})
	fullEvent, err := sim.RunWith(scn, New(cfg), sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fullEvent.Engine.Spans == 0 {
		t.Fatal("uninterrupted event run opened no spans")
	}

	// t=3000 sits mid-plateau (second plateau runs 1800–3600 s), deep
	// inside a quiescent span of the uninterrupted event run.
	sp := store.at(3000)
	if sp == nil {
		t.Fatal("no snapshot captured near t=3000")
	}

	tickTail := runTicks(t, scn, New(cfg), sim.RunOptions{Resume: sp})
	eventTail, err := sim.RunWith(scn, New(cfg), sim.RunOptions{Resume: sp})
	if err != nil {
		t.Fatal(err)
	}

	// The two resumed continuations agree with each other in full.
	assertBitIdentical(t, tickTail, eventTail)
	if eventTail.Engine.Spans == 0 || eventTail.Engine.TicksSkipped == 0 {
		t.Fatalf("resumed event run never re-quiesced: %+v", eventTail.Engine)
	}

	// And with the uninterrupted runs' tails, column by column.
	off := int(sp.Step)
	f, r := &full.Series, &eventTail.Series
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
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s diverged at t=%.0fs: full=%v resumed=%v", c.name, c.tail[0]+float64(i), a, b)
			}
		}
	}
}

// A controller crash with a checkpointed restart must behave identically
// under the oracle and RunWith: the dead window blocks spans, the restore
// runs on a real tick, and the post-restore trajectory re-quiesces.
func TestEventEngineBitIdenticalCrashRestore(t *testing.T) {
	scn := quiesceScenario(t, 3*3600)
	scn.Faults = faults.Plan{Faults: []faults.Fault{
		{Kind: faults.ControllerCrash, OnsetS: 4000, DurationS: 45, Severity: 45},
	}}
	cfg := DefaultConfig()
	cfg.NoSprint = true

	opts := func() sim.RunOptions {
		return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore(), EveryS: 600}}
	}
	tick := runTicks(t, scn, New(cfg), opts())
	event, err := sim.RunWith(scn, New(cfg), opts())
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, tick, event)
	if event.Engine.Spans == 0 {
		t.Fatal("crash/restore run opened no spans around the dead window")
	}
}

package hier

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// TestRunLinkedCancelAndResume: closing Stop abandons a linked run within
// one tick with sim.ErrCanceled and leaves one final coherent checkpoint
// per row at the cancellation boundary; a run resumed from those snapshots
// covers the remaining window. For a building, Result.ResumeStep is the
// latest row start and the building series has exactly steps−ResumeStep
// samples; for one row the capture lands exactly one tick after the stop.
// Under one worker the rows stop in different rounds and resume from
// different steps, on one worker exactly as on many.
func TestRunLinkedCancelAndResume(t *testing.T) {
	t.Run("building", testCancelAndResumeBuilding)
	t.Run("one_row", testCancelAndResumeOneRow)
	t.Run("staggered_one_worker", testCancelAndResumeStaggered)
}

// testCancelAndResumeStaggered: with Serial, row 0's tick at a step inside
// its third round closes Stop before row 1 has started that round, so row
// 0's final capture lands one step later and row 1's at the round's first
// step. The resumed building must be bit-identical on one worker and on
// GOMAXPROCS workers.
func testCancelAndResumeStaggered(t *testing.T) {
	c := testConfig()
	c.Serial = true
	stop := make(chan struct{})
	c.Stop = stop
	cap := &captureSink{}
	c.CheckpointEveryS, c.OnRowCheckpoint = 1e6, cap.sink // only the cancel capture fires
	// Row 0's third round covers steps roundStart … 2·roundTicks.
	roundStart := 1 + roundTicks
	stopAt := roundStart + 5
	c.OnRowTick = func(row, step int, _, _ float64) {
		if row == 0 && step == stopAt {
			close(stop)
		}
	}
	if _, err := RunLinked(c); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	var resume [][]*checkpoint.Snapshot
	for row, want := range []int64{int64(stopAt) + 1, int64(roundStart)} {
		sets := cap.row(row)
		if len(sets) != 1 {
			t.Fatalf("row %d captured %d sets on cancel, want exactly the final capture", row, len(sets))
		}
		if got := sets[0][0].Step; got != want {
			t.Fatalf("row %d cancel capture at step %d, want %d", row, got, want)
		}
		resume = append(resume, sets[0])
	}

	rc := testConfig()
	rc.Resume = resume
	res := checkParallelMatchesSerial(t, rc)
	if res.Rows[0].StartStep != stopAt+1 || res.Rows[1].StartStep != roundStart {
		t.Errorf("StartSteps = %d, %d, want %d, %d", res.Rows[0].StartStep, res.Rows[1].StartStep, stopAt+1, roundStart)
	}
	if res.ResumeStep != stopAt+1 {
		t.Errorf("ResumeStep = %d, want %d (latest row start)", res.ResumeStep, stopAt+1)
	}
}

func testCancelAndResumeBuilding(t *testing.T) {
	c := testConfig()
	stop := make(chan struct{})
	c.Stop = stop
	var mu sync.Mutex
	latest := map[int][]*checkpoint.Snapshot{}
	c.CheckpointEveryS = 100
	c.OnRowCheckpoint = func(row int, snaps []*checkpoint.Snapshot) {
		mu.Lock()
		latest[row] = snaps
		mu.Unlock()
	}
	var once sync.Once
	c.OnRowTick = func(row, step int, _, _ float64) {
		if step >= 199 {
			once.Do(func() { close(stop) })
		}
	}
	_, err := RunLinked(c)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	mu.Lock()
	resume := [][]*checkpoint.Snapshot{latest[0], latest[1]}
	mu.Unlock()
	for row, snaps := range resume {
		if len(snaps) != c.Rows[row].Racks {
			t.Fatalf("row %d final capture has %d racks, want %d", row, len(snaps), c.Rows[row].Racks)
		}
	}

	c2 := testConfig()
	c2.Resume = resume
	res, err := RunLinked(c2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for row, snaps := range resume {
		start := int(snaps[0].Step)
		if res.Rows[row].StartStep != start {
			t.Errorf("row %d StartStep = %d, want %d", row, res.Rows[row].StartStep, start)
		}
		if start > want {
			want = start
		}
	}
	if res.ResumeStep != want {
		t.Errorf("ResumeStep = %d, want %d (latest row start)", res.ResumeStep, want)
	}
	steps := int(c2.Scenario.DurationS / c2.Scenario.DtS)
	if len(res.BuildingAggregateW) != steps-res.ResumeStep {
		t.Errorf("building series covers %d steps, want %d", len(res.BuildingAggregateW), steps-res.ResumeStep)
	}
	if res.CBTrips != 0 || res.OutageS != 0 {
		t.Errorf("resumed building tripped: cb=%d outage=%g", res.CBTrips, res.OutageS)
	}
}

func testCancelAndResumeOneRow(t *testing.T) {
	cfg := rowConfig()
	cfg.Scenario.DurationS = 600
	stop := make(chan struct{})
	cfg.Stop = stop
	cap := &captureSink{}
	cfg.CheckpointEveryS, cfg.OnRowCheckpoint = 1e6, cap.sink // cadence beyond the run: only the cancel capture fires
	var once sync.Once
	cfg.OnRowTick = func(_, step int, _, _ float64) {
		if step >= 99 {
			once.Do(func() { close(stop) })
		}
	}
	if _, err := RunLinked(cfg); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	sets := cap.row(0)
	if len(sets) != 1 {
		t.Fatalf("captured %d sets on cancel, want exactly the final capture", len(sets))
	}
	set := sets[0]
	if set[0].Step != 100 {
		t.Fatalf("cancel capture at step %d, want 100 (one tick after the stop)", set[0].Step)
	}

	rcfg := rowConfig()
	rcfg.Scenario.DurationS = 600
	rcfg.Resume = [][]*checkpoint.Snapshot{set}
	res := linkedRow(t, rcfg)
	if res.StartStep != 100 {
		t.Fatalf("resumed StartStep = %d, want 100", res.StartStep)
	}
	steps := int(cfg.Scenario.DurationS / cfg.Scenario.DtS)
	if len(res.AggregateW) != steps-100 {
		t.Fatalf("resumed aggregate covers %d steps, want %d", len(res.AggregateW), steps-100)
	}
}

// TestRunSweepCancel: sweeps poll the stop channel too — both between rows
// and inside the racks' tick loops.
func TestRunSweepCancel(t *testing.T) {
	c := testConfig()
	stop := make(chan struct{})
	close(stop)
	c.Stop = stop
	if _, err := RunSweep(c); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("pre-closed stop: err = %v, want sim.ErrCanceled", err)
	}
}

// TestRunLinkedPanicIsolated: a panic inside a row callback, or inside a
// rack's lock-step tick on the serial path exactly as on the parallel one,
// surfaces as a *sim.PanicError naming the row (and the rack) instead of
// crashing the process.
func TestRunLinkedPanicIsolated(t *testing.T) {
	t.Run("row_callback", func(t *testing.T) {
		c := testConfig()
		c.OnRowTick = func(row, step int, _, _ float64) {
			if row == 1 && step == 10 {
				panic("boom from row 1")
			}
		}
		_, err := RunLinked(c)
		if err == nil {
			t.Fatal("panicking run returned nil error")
		}
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a *sim.PanicError", err)
		}
		if !strings.Contains(err.Error(), "boom from row 1") || !strings.Contains(err.Error(), "hier: row 1") {
			t.Fatalf("error lacks panic value or row attribution: %v", err)
		}
	})
	t.Run("rack", func(t *testing.T) {
		for _, serial := range []bool{false, true} {
			cfg := rowConfig()
			cfg.Scenario.DurationS = 120
			cfg.Scenario.BurstDurationS = 120
			cfg.Serial = serial
			cfg.RackOptions = func(_, rack int) sim.RunOptions {
				if rack == 1 {
					return sim.RunOptions{Decisions: telemetry.NewDecisionSink(panicWriter{})}
				}
				return sim.RunOptions{}
			}
			_, err := RunLinked(cfg)
			var pe *sim.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("serial=%v: err = %v, want a *sim.PanicError", serial, err)
			}
			if !strings.Contains(err.Error(), "hier: row 0: rack 1") {
				t.Fatalf("serial=%v: error lacks row and rack attribution: %v", serial, err)
			}
		}
	})
}

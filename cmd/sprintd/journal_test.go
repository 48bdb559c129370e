package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/hier"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/row0.SPRDROW2.ckpt from the current binary")

// A row checkpoint whose frame claims far more payload than the file holds
// must be rejected before anything is sized from the claim: the file is
// read on restart, and a corrupt length must not become a huge allocation.
func TestLoadRowCheckpointRejectsOversizedCount(t *testing.T) {
	j, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := j.runDir("7")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(rowCkptMagic), "SPCK"...)
	b = binary.BigEndian.AppendUint32(b, checkpoint.Version)
	b = binary.BigEndian.AppendUint32(b, 64<<20) // the largest payload a frame may claim
	b = binary.BigEndian.AppendUint32(b, 0)
	if err := os.WriteFile(filepath.Join(dir, "row0.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snaps, err := j.loadRowCheckpoint("7", 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("loaded %d snapshots from a payload-less file claiming 64 MiB", len(snaps))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want < 1 MB", d)
	}
}

// fixtureSpec is the run the committed row checkpoint was captured from:
// one row of two racks, captured at t = 120 s of 240 s.
const (
	fixtureSpec  = `{"rows": 1, "racks_per_row": 2, "duration_s": 240}`
	fixtureStepS = 120
	fixturePath  = "testdata/row0.SPRDROW2.ckpt"
)

// fixtureConfig returns the building fixtureSpec describes.
func fixtureConfig(t *testing.T) (RunSpec, hier.Config) {
	t.Helper()
	var rs RunSpec
	if err := json.Unmarshal([]byte(fixtureSpec), &rs); err != nil {
		t.Fatal(err)
	}
	cfg, err := rs.config()
	if err != nil {
		t.Fatal(err)
	}
	return rs, cfg
}

// journalWithFixture returns a journal holding run id with the committed
// fixture as its row 0 checkpoint, rewriting the fixture first under
// -update.
func journalWithFixture(t *testing.T, id string) *journal {
	t.Helper()
	j, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(j.runDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	if *updateFixture {
		_, cfg := fixtureConfig(t)
		cfg.CheckpointEveryS = fixtureStepS
		cfg.OnRowCheckpoint = func(row int, snaps []*checkpoint.Snapshot) {
			if err := j.saveRowCheckpoint(id, row, snaps); err != nil {
				t.Error(err)
			}
		}
		if _, err := hier.RunLinked(cfg); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(j.runDir(id), "row0.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(j.runDir(id), "row0.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestRowCheckpointFixtureResumes: the committed SPRDROW2 row checkpoint
// (checkpoint.Version 2) loads, and the run resumed from it is
// bit-identical to an uninterrupted run over the rest of the window: the
// row draw and every rack's power, charge and batch frequency. (The link
// counters are not: a resumed row's coordinator is a fresh process and
// comes up through its crash-restart path.) A
// change to the snapshot schema or the row format fails here until
// Version or the magic is bumped and the fixture rewritten on purpose
// (go test ./cmd/sprintd -run Fixture -update).
func TestRowCheckpointFixtureResumes(t *testing.T) {
	j := journalWithFixture(t, "r1")
	snaps, err := j.loadRowCheckpoint("r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Step != fixtureStepS || snaps[1].Step != fixtureStepS {
		t.Fatalf("fixture holds %d snapshots at step %d, want 2 at step %d", len(snaps), snaps[0].Step, fixtureStepS)
	}
	_, cfg := fixtureConfig(t)
	full, err := hier.RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = [][]*checkpoint.Snapshot{snaps}
	res, err := hier.RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := full.Rows[0], res.Rows[0]
	if got.StartStep != fixtureStepS {
		t.Fatalf("resumed at step %d, want %d", got.StartStep, fixtureStepS)
	}
	same := func(name string, want, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s at step %d: %v, uninterrupted %v", name, fixtureStepS+k, got[k], want[k])
			}
		}
	}
	same("row draw", want.AggregateW[fixtureStepS:], got.AggregateW)
	for i, r := range got.Racks {
		w := want.Racks[i].Series
		same("rack total power", w.TotalW[fixtureStepS:], r.Series.TotalW)
		same("rack UPS SoC", w.SoC[fixtureStepS:], r.Series.SoC)
		same("rack batch frequency", w.FreqBatch[fixtureStepS:], r.Series.FreqBatch)
	}
}

// TestRowCheckpointV1ResumesFromStart: a row checkpoint an older binary
// wrote (SPRDROW1: a rack count, then one length-prefixed checkpoint frame
// per rack) does not load, so the interrupted run it belongs to resumes
// from step 0 and finishes with the uninterrupted run's summary.
func TestRowCheckpointV1ResumesFromStart(t *testing.T) {
	j := journalWithFixture(t, "r1")
	snaps, err := j.loadRowCheckpoint("r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := binary.BigEndian.AppendUint32([]byte("SPRDROW1"), uint32(len(snaps)))
	for _, sp := range snaps {
		b, err := checkpoint.Encode(sp)
		if err != nil {
			t.Fatal(err)
		}
		v1 = binary.BigEndian.AppendUint32(v1, uint32(len(b)))
		v1 = append(v1, b...)
	}
	resumesFromStart(t, j, "r1", v1, "not a row checkpoint file")
}

// TestRowCheckpointVersion1ResumesFromStart: a SPRDROW2 row checkpoint
// whose frame carries checkpoint.Version 1 (the schema with the MPC
// warm-start cache) is refused by the version check, and its run resumes
// from step 0 and finishes with the uninterrupted run's summary.
func TestRowCheckpointVersion1ResumesFromStart(t *testing.T) {
	j := journalWithFixture(t, "r1")
	b, err := os.ReadFile(filepath.Join(j.runDir("r1"), "row0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	// The frame follows the magic: "SPCK", then the version.
	binary.BigEndian.PutUint32(b[len(rowCkptMagic)+4:], 1)
	resumesFromStart(t, j, "r1", b, "format version 1, this binary speaks 2")
}

// recordSpec is the run behind the committed journal record
// (testdata/journal/runs/r1/record.json, as an earlier sprintd wrote it
// for the finished run) and the finished run of the kill -9 test. Its keys are not in alphabetical order, and its seed lies above
// 2⁵³, where a float64 drops the last digit.
const (
	recordSpec    = `{"rows": 1, "racks_per_row": 2, "duration_s": 120, "seed": 9007199254740993}`
	recordFixture = "testdata/journal/runs/r1/record.json"
)

// TestJournalFixtureServesRecordedSummary: a service restored from the
// committed journal serves the finished run's summary as the record's
// bytes, indented the way every document is served.
func TestJournalFixtureServesRecordedSummary(t *testing.T) {
	b, err := os.ReadFile(recordFixture)
	if err != nil {
		t.Fatal(err)
	}
	var rec journalRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	var spec RunSpec
	if err := json.Unmarshal([]byte(recordSpec), &spec); err != nil {
		t.Fatal(err)
	}
	if rec.State != stateDone || !reflect.DeepEqual(rec.Spec, spec) {
		t.Fatalf("fixture holds a %s run of %+v, want a done run of %s", rec.State, rec.Spec, recordSpec)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, rec.Summary, "", " "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')

	j, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(j.runDir(rec.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(j.runDir(rec.ID), "record.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := defaultServerConfig()
	cfg.StateDir = j.dir
	_, ts := newTestService(t, cfg)
	if got := getBody(t, ts.URL+"/api/v1/runs/"+rec.ID); got != want.String() {
		t.Fatalf("restored run serves\n%s\nwant the record's summary\n%s", got, want.String())
	}
}

// resumesFromStart writes file as run id's row 0 checkpoint and checks that
// it does not load (with an error containing why), that the journal offers
// no resume set for it, and that a service recovering the running run from
// the journal finishes it with the uninterrupted run's summary.
func resumesFromStart(t *testing.T, j *journal, id string, file []byte, why string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(j.runDir(id), "row0.ckpt"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.loadRowCheckpoint(id, 0); err == nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("loading the row checkpoint: %v, want an error saying %q", err, why)
	}
	if r := j.loadResume(id, 1); r != nil {
		t.Fatalf("resume set from a refused checkpoint: %v", r)
	}

	rs, cfg := fixtureConfig(t)
	full, err := hier.RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(linkedResult(full))
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	if err := j.saveRecord(journalRecord{ID: id, Mode: "linked", State: "running", Submitted: now, Started: now, Spec: rs}); err != nil {
		t.Fatal(err)
	}
	scfg := defaultServerConfig()
	scfg.StateDir = j.dir
	_, ts := newTestService(t, scfg)
	doc := waitDone(t, ts, id)
	if !reflect.DeepEqual(doc["result"], want) {
		t.Fatalf("run recovered over a refused checkpoint finished with\n %v\nwant the uninterrupted\n %v", doc["result"], want)
	}
}

// A run's journal copies land in the order they are taken: the running
// copy submission journals, racing the supervisor's terminal record, never
// overwrites it. Each round journals a running run from a second goroutine
// while the run finishes and journals its terminal record.
func TestJournalKeepsTerminalRecordOverRunningCopy(t *testing.T) {
	jn, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &server{jn: jn}
	for i := 0; i < 200; i++ {
		now := time.Now()
		r := &run{ID: strconv.Itoa(i), Mode: "sweep", Submitted: now, state: stateRunning, Started: now}
		copied := make(chan struct{})
		go func() {
			defer close(copied)
			s.journalRun(r)
		}()
		// Finish at staggered instants, so that in some rounds the copy
		// is taken before the finish and written after it.
		time.Sleep(time.Duration(i%25) * 4 * time.Microsecond)
		s.landRun(r, stateDone, "", nil)
		<-copied
		b, err := os.ReadFile(filepath.Join(jn.runDir(r.ID), "record.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec journalRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != stateDone || rec.Summary == nil {
			t.Fatalf("round %d: record.json holds state %q (summary %s) after the terminal record was written", i, rec.State, rec.Summary)
		}
	}
}

// A finished run serves the same status document after a restart on the
// same state dir as before it: the terminal record keeps the run's final
// progress counters, a linked run's and a sweep's alike.
func TestRestoredRunServesItsStatus(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.StateDir = t.TempDir()
	_, ts := newTestService(t, cfg)
	before := map[string]string{}
	for _, spec := range []string{recordSpec, `{"mode": "sweep", "rows": 2, "racks_per_row": 2, "duration_s": 120}`} {
		id := postRun(t, ts, spec)
		waitDone(t, ts, id)
		before[id] = getBody(t, ts.URL+"/api/v1/runs/"+id+"/status")
		if !strings.Contains(before[id], `"step": 120`) {
			t.Fatalf("run %s: finished run's status shows no final step:\n%s", id, before[id])
		}
	}
	_, ts2 := newTestService(t, cfg)
	for id, want := range before {
		if got := getBody(t, ts2.URL+"/api/v1/runs/"+id+"/status"); got != want {
			t.Fatalf("run %s: status after the restart\n%s\nbefore it\n%s", id, got, want)
		}
	}
}

// A run is served as finished only once its terminal record is on disk: a
// reader that sees the terminal state finds it in record.json as well, so
// a kill -9 can never make a restart run again a run served as done.
func TestTerminalRecordOnDiskBeforeServed(t *testing.T) {
	jn, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &server{jn: jn}
	for i := 0; i < 100; i++ {
		now := time.Now()
		r := &run{ID: strconv.Itoa(i), Mode: "sweep", Submitted: now, state: stateRunning, Started: now}
		s.journalRun(r)
		landed := make(chan struct{})
		go func() {
			defer close(landed)
			s.landRun(r, stateDone, "", nil)
		}()
		for r.getState() != stateDone {
		}
		b, err := os.ReadFile(filepath.Join(jn.runDir(r.ID), "record.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec journalRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != stateDone {
			t.Fatalf("round %d: the run was served as done while record.json held %q", i, rec.State)
		}
		<-landed
	}
}

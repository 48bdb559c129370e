package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sprintcon/internal/checkpoint"
)

// journal is sprintd's durable run record under -state-dir: one directory
// per run holding the spec/state record and, for linked runs, one framed
// checkpoint file per row. Every write is atomic (temp + rename), so a
// kill -9 at any instant leaves either the previous or the next intact
// version of each file — never a torn one. On startup the journal is
// replayed: terminal runs come back as queryable records, interrupted ones
// re-enter the admission queue and resume from their latest row snapshots
// (or from step 0 when none were captured — runs are deterministic, so a
// from-scratch re-execution reproduces the same result).
type journal struct {
	dir string
}

// journalRecord is the persisted lifecycle record of one run.
type journalRecord struct {
	ID        string    `json:"id"`
	Mode      string    `json:"mode"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Error     string    `json:"error,omitempty"`
	Spec      RunSpec   `json:"spec"`
	// Summary is a terminal run's summary document, kept as the bytes it
	// was rendered to, so a restored run serves exactly what it served
	// before the restart.
	Summary json.RawMessage `json:"summary,omitempty"`
	// StepsTotal, RowStep and RowAggW are a terminal run's final progress
	// counters (steps, each row's steps done and last draw in W), which
	// its status document serves.
	StepsTotal int       `json:"steps_total,omitempty"`
	RowStep    []int     `json:"row_step,omitempty"`
	RowAggW    []float64 `json:"row_aggregate_w,omitempty"`
}

func newJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) runDir(id string) string { return filepath.Join(j.dir, "runs", id) }

// saveRecord persists the run's lifecycle record.
func (j *journal) saveRecord(rec journalRecord) error {
	dir := j.runDir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, "record.json"), b); err != nil {
		return fmt.Errorf("journal: %s: %w", rec.ID, err)
	}
	return nil
}

// rowCkptMagic frames a coherent row-snapshot file: the magic, then one
// checkpoint.EncodeSet frame holding the row's racks in order. The whole
// set lands in one file so the per-rack snapshots can never be torn apart
// by a crash — the frame itself is versioned and checksummed, so any
// partial rename-loser is rejected on load. A file from an older binary
// (SPRDROW1: one frame per rack) fails to load, and the run resumes from
// step 0.
const rowCkptMagic = "SPRDROW2"

// saveRowCheckpoint persists one row's coherent snapshot set.
func (j *journal) saveRowCheckpoint(id string, row int, snaps []*checkpoint.Snapshot) error {
	frame, err := checkpoint.EncodeSet(snaps)
	if err != nil {
		return fmt.Errorf("journal: row checkpoint: %w", err)
	}
	buf := append([]byte(rowCkptMagic), frame...)
	path := filepath.Join(j.runDir(id), fmt.Sprintf("row%d.ckpt", row))
	if err := checkpoint.WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("journal: %s row %d: %w", id, row, err)
	}
	return nil
}

// loadRowCheckpoint reads one row's snapshot set ((nil, nil) when absent).
func (j *journal) loadRowCheckpoint(id string, row int) ([]*checkpoint.Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(j.runDir(id), fmt.Sprintf("row%d.ckpt", row)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !bytes.HasPrefix(b, []byte(rowCkptMagic)) {
		return nil, fmt.Errorf("journal: %s row %d: not a row checkpoint file", id, row)
	}
	snaps, err := checkpoint.DecodeSet(b[len(rowCkptMagic):])
	if err != nil {
		return nil, fmt.Errorf("journal: %s row %d: %w", id, row, err)
	}
	return snaps, nil
}

// loadResume assembles a run's per-row resume sets, best-effort: a row
// without a usable checkpoint file resumes from step 0 (nil entry), which
// is always correct — the simulation is deterministic — just slower.
func (j *journal) loadResume(id string, rows int) [][]*checkpoint.Snapshot {
	out := make([][]*checkpoint.Snapshot, rows)
	any := false
	for r := 0; r < rows; r++ {
		snaps, err := j.loadRowCheckpoint(id, r)
		if err != nil || len(snaps) == 0 {
			continue
		}
		// Coherence within the file is structural (one atomic write), but
		// verify anyway: incoherent sets resume from scratch.
		ok := true
		for _, sp := range snaps {
			if sp.Step != snaps[0].Step {
				ok = false
				break
			}
		}
		if ok {
			out[r] = snaps
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// load replays the journal: every run record, ordered by numeric run id.
func (j *journal) load() ([]journalRecord, error) {
	entries, err := os.ReadDir(filepath.Join(j.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var recs []journalRecord
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(j.runDir(e.Name()), "record.json"))
		if err != nil {
			// A run directory without a record is a crash between MkdirAll
			// and the first record write; nothing to recover.
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("journal: %s: %w", e.Name(), err)
		}
		if rec.ID == "" {
			rec.ID = e.Name()
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool { return runSeq(recs[a].ID) < runSeq(recs[b].ID) })
	return recs, nil
}

// runSeq extracts the numeric sequence from a run id ("r12" → 12).
func runSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "r"))
	return n
}

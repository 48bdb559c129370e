package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// A row checkpoint whose header claims far more racks than its bytes can
// frame must be rejected before anything is sized from the claim: the file
// is read on restart, and a corrupt count must not become a huge
// allocation.
func TestLoadRowCheckpointRejectsOversizedCount(t *testing.T) {
	j, err := newJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := j.runDir("7")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := binary.BigEndian.AppendUint32([]byte(rowCkptMagic), 1<<22)
	if err := os.WriteFile(filepath.Join(dir, "row0.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snaps, err := j.loadRowCheckpoint("7", 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("loaded %d snapshots from a frameless file claiming 2^22 racks", len(snaps))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want < 1 MB", d)
	}
}

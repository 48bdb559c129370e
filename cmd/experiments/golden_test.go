//go:build !race

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestExperimentOutputGolden pins the output of `experiments -exp all`,
// `-exp obs` and `-exp telemetry` byte for byte: every experiment is
// deterministic for its seeds, so any change to a result shows up as a
// golden diff. Regenerate deliberately with:
//
//	go test ./cmd/experiments -run Golden -update
//
// The three runs take about ten seconds, so the file is left out of race
// builds: the plain test run checks the output once, and the packages the
// experiments drive carry their own race-checked tests.
func TestExperimentOutputGolden(t *testing.T) {
	for _, exp := range []string{"all", "obs", "telemetry"} {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, exp, false); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", exp+".golden.txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("-exp %s output diverged from %s (%d bytes vs %d); if the change is intentional, regenerate with -update",
					exp, golden, buf.Len(), len(want))
			}
		})
	}
}

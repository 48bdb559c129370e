package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestClusterSummaryGolden pins the cluster-mode summary of
// `sprintsim -racks 4`, `-racks 4 -link`, `-racks 4 -link -naive-link` and
// `-racks 4 -link -feeder-budget 15000` on the default flags byte for
// byte. Regenerate deliberately with:
//
//	go test ./cmd/sprintsim -run ClusterSummaryGolden -update
func TestClusterSummaryGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts clusterOpts
	}{
		{"racks4", clusterOpts{racks: 4}},
		{"racks4_link", clusterOpts{racks: 4, link: true}},
		{"racks4_link_naive", clusterOpts{racks: 4, link: true, naive: true}},
		// An off-grid rating: 15 kW funds two whole 800 W bonuses over
		// 4·3200 W, so the row packs to, and is scored against, 14.4 kW.
		{"racks4_link_offgrid", clusterOpts{racks: 4, link: true, budgetW: 15000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runCluster(&buf, flagScenario(900, 720, 1), tc.opts); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden.txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("cluster summary diverged from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

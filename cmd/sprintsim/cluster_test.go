package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprintcon/internal/faults"
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

// TestStaticClusterInputs covers the input rules of `sprintsim -racks N`
// without -link: a link-scoped fault is rejected with an error naming
// -link, a rating below the row's minimum packing is rejected, and a
// rating that funds every rack's overload runs the racks in phase (the
// synchronized peak of experiment E12).
func TestStaticClusterInputs(t *testing.T) {
	linkFault := []faults.Fault{{Kind: faults.LinkPartition, Server: 0, OnsetS: 100, DurationS: 50, Severity: 1}}
	for _, tc := range []struct {
		name    string
		budgetW float64
		faults  []faults.Fault
		wantErr string
		wantOut string
	}{
		{name: "link_fault_needs_link", faults: linkFault, wantErr: "-link"},
		{name: "budget_below_min_packing", budgetW: 13000, wantErr: "for a full packing"},
		{name: "budget_funds_every_rack", budgetW: 16000, wantOut: "aggregate peak/mean:  16461 /"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn := flagScenario(900, 720, 1)
			scn.Faults.Faults = tc.faults
			var buf bytes.Buffer
			err := runCluster(&buf, scn, clusterOpts{racks: 4, budgetW: tc.budgetW})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tc.wantOut) {
				t.Fatalf("output lacks %q:\n%s", tc.wantOut, buf.String())
			}
		})
	}
}

// TestPartitionSpanTraceGolden pins the JSONL span trace of
//
//	sprintsim -racks 4 -link -fault link-partition:10:690:1:0 -trace-spans f
//
// (the trace CI's obs-coverage job uploads) byte for byte, by its line and
// byte counts and SHA-256, as TestSweepGolden pins the sweep's bits.
func TestPartitionSpanTraceGolden(t *testing.T) {
	const (
		wantLines = 4251
		wantBytes = 526098
		wantSHA   = "27b16b912e4e901e87333bb6d7b4fd52b39b9d30d67c4b6d023635c6214af8b1"
	)
	f, err := faults.Parse("link-partition:10:690:1:0")
	if err != nil {
		t.Fatal(err)
	}
	scn := flagScenario(900, 720, 1)
	scn.Faults.Faults = []faults.Fault{f}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := runCluster(io.Discard, scn, clusterOpts{racks: 4, link: true, traceSpans: path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(got)
	if lines := bytes.Count(got, []byte("\n")); lines != wantLines || len(got) != wantBytes || hex.EncodeToString(sum[:]) != wantSHA {
		t.Fatalf("span trace: %d lines, %d bytes, sha256 %x; want %d lines, %d bytes, sha256 %s",
			lines, len(got), sum, wantLines, wantBytes, wantSHA)
	}
}

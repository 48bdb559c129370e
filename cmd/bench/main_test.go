package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report is a one-scenario quick report at the given GOMAXPROCS.
func report(procs int, metrics map[string]float64) Report {
	return Report{Schema: schemaVersion, GOMAXPROCS: procs, Quick: true,
		Scenarios: []Scenario{{Name: "s", GOMAXPROCS: procs, Metrics: metrics}}}
}

// writeBaseline commits rep as a baseline file and returns its path.
func writeBaseline(t *testing.T, rep Report) string {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name      string
		baseProcs int
		base, cur map[string]float64
		wall      bool
		want      int
	}{
		{
			// Sweep counts do not depend on the core count, so a baseline
			// recorded at another GOMAXPROCS still gates them.
			name:      "deterministic regression across core counts fails",
			baseProcs: 1,
			base:      map[string]float64{"cold_sweeps": 52},
			cur:       map[string]float64{"cold_sweeps": 63},
			want:      1,
		},
		{
			name:      "bit identity lost across core counts fails",
			baseProcs: 1,
			base:      map[string]float64{"bit_identical": 1},
			cur:       map[string]float64{"bit_identical": 0},
			want:      1,
		},
		{
			name:      "speedup drop across core counts is skipped",
			baseProcs: 1,
			base:      map[string]float64{"speedup_event": 4},
			cur:       map[string]float64{"speedup_event": 1},
			want:      0,
		},
		{
			name:      "speedup drop at the same core count fails",
			baseProcs: 2,
			base:      map[string]float64{"speedup_event": 4},
			cur:       map[string]float64{"speedup_event": 1},
			want:      1,
		},
		{
			name:      "wall clock is ignored without -wall",
			baseProcs: 2,
			base:      map[string]float64{"event_ns": 1e6},
			cur:       map[string]float64{"event_ns": 9e6},
			want:      0,
		},
		{
			name:      "wall clock is gated with -wall",
			baseProcs: 2,
			base:      map[string]float64{"event_ns": 1e6},
			cur:       map[string]float64{"event_ns": 9e6},
			wall:      true,
			want:      1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBaseline(t, report(tc.baseProcs, tc.base))
			if got := compare(report(2, tc.cur), path, tc.wall); got != tc.want {
				t.Fatalf("compare = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestLoadBaselineRejectsUnknownField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	doc := `{"schema": "` + schemaVersion + `", "quick": true, "scenarios": [], "scenaros": []}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadBaseline(path)
	if err == nil || !strings.Contains(err.Error(), "scenaros") {
		t.Fatalf("loadBaseline error = %v, want one naming the unknown field", err)
	}
	if got := compare(report(1, nil), path, false); got != 1 {
		t.Fatalf("compare against a baseline with an unknown field = %d, want 1", got)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method the steadiness rule is stated in; the expected values are what
// Python 3 prints for these inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75}, // order does not matter
		{[]float64{1, 3}, 0.5, 3.5},         // extrapolates, as Python does
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// (8.25 − 2.75) / 5.5
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %g, want 1", s)
	}
	if s := spread([]float64{5, 5, 5, 5}); s != 0 {
		t.Errorf("spread of a constant = %g, want 0", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 0, 30, 20}
	for _, c := range []struct{ p, want float64 }{
		{0, 0}, {0.5, 15}, {1, 30}, {0.99, 29.7},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestWithoutFlags(t *testing.T) {
	got := withoutFlags([]string{"--workload", "w", "--repeat", "5", "-seed=3", "--seconds", "9"}, "repeat", "seed")
	want := []string{"--workload", "w", "--seconds", "9"}
	if len(got) != len(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

// The result line of a traced run carries exactly BENCHMARK.json's
// per_layer metrics, and every one of them is a metric the run computes.
func TestReportedLayersMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range bf.PerLayer {
		listed = append(listed, m.Name)
	}
	if strings.Join(listed, ",") != strings.Join(reportedLayers, ",") {
		t.Errorf("BENCHMARK.json per_layer %q, result line carries %q", listed, reportedLayers)
	}
	known := map[string]bool{"trace.overhead_frac": true}
	for _, l := range replayLayers {
		known[l.name] = true
	}
	for _, name := range reportedLayers {
		if !known[name] && !strings.HasPrefix(name, "sprintd.") {
			t.Errorf("reported layer metric %s is never computed", name)
		}
	}
}

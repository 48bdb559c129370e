package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sprintcon/internal/telemetry"
)

// The parser reads what the program's own exporter writes, special
// float spellings and histogram series included.
func TestParsePromReadsTheExporter(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("hier_cb_trips_total", "rack breaker trips").Add(3)
	reg.Gauge("lease_age", "NaN before the first grant").Set(math.NaN())
	reg.Gauge("pcb_w", "uncontrolled budget").Set(math.Inf(1))
	reg.Gauge("floor", "help with a \\ backslash\nand a newline").Set(-2.5e-7)
	h := reg.Histogram("tick_seconds", "tick time", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := parseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"hier_cb_trips_total":             3,
		"pcb_w":                           math.Inf(1),
		"floor":                           -2.5e-7,
		`tick_seconds_bucket{le="0.001"}`: 1,
		`tick_seconds_bucket{le="0.01"}`:  1,
		`tick_seconds_bucket{le="+Inf"}`:  2,
		"tick_seconds_sum":                0.5005,
		"tick_seconds_count":              2,
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %g (present %v), want %g", k, g, ok, v)
		}
	}
	if v, ok := got["lease_age"]; !ok || !math.IsNaN(v) {
		t.Errorf("lease_age = %g (present %v), want NaN", v, ok)
	}
	if len(got) != len(want)+1 {
		t.Errorf("parsed %d samples, want %d: %v", len(got), len(want)+1, got)
	}
}

func TestParsePromTimestampsAndErrors(t *testing.T) {
	got, err := parseProm(strings.NewReader("# TYPE x counter\nx 4 1700000000000\ny{a=\"b c\"} -Inf\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != 4 || !math.IsInf(got[`y{a="b c"}`], -1) {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"novalue\n", "x notanumber\n", "x{le=\"1\"}\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

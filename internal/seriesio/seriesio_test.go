package seriesio

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"sprintcon/internal/sim"
)

func demoSeries() *sim.Series {
	return &sim.Series{
		DtS:       1,
		Time:      []float64{0, 1, 2},
		TotalW:    []float64{3000, 3100, 3200},
		CBW:       []float64{3000, 3050, 3100},
		UPSW:      []float64{0, 50, 100},
		PCbW:      []float64{math.NaN(), 3200, 3200},
		PBatchW:   []float64{1500, 1500, math.NaN()},
		FreqInter: []float64{1, 1, 1},
		FreqBatch: []float64{0.4, 0.5, 0.6},
		SoC:       []float64{1, 0.99, 0.98},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, demoSeries()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 ticks
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "time_s" || len(rows[0]) != 9 {
		t.Fatalf("header = %v", rows[0])
	}
	// NaN cells are empty.
	if rows[1][4] != "" {
		t.Fatalf("NaN cell should be empty, got %q", rows[1][4])
	}
	if rows[2][4] != "3200.000" {
		t.Fatalf("pcb cell = %q", rows[2][4])
	}
}

// TestCSVRoundTripNaN pins the ReadCSV ↔ WriteCSV inverse on a series with
// NaN budget columns — the shape every SGCT run produces (no batch budget)
// and any run's pre-control warmup tick produces (no CB budget yet).
func TestCSVRoundTripNaN(t *testing.T) {
	want := demoSeries()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cols := []struct {
		name       string
		want, have []float64
	}{
		{"Time", want.Time, got.Time},
		{"TotalW", want.TotalW, got.TotalW},
		{"CBW", want.CBW, got.CBW},
		{"UPSW", want.UPSW, got.UPSW},
		{"PCbW", want.PCbW, got.PCbW},
		{"PBatchW", want.PBatchW, got.PBatchW},
		{"FreqInter", want.FreqInter, got.FreqInter},
		{"FreqBatch", want.FreqBatch, got.FreqBatch},
		{"SoC", want.SoC, got.SoC},
	}
	for _, c := range cols {
		if len(c.have) != len(c.want) {
			t.Fatalf("%s: len = %d, want %d", c.name, len(c.have), len(c.want))
		}
		for i := range c.want {
			// demoSeries uses ≤ 3 decimals, so WriteCSV's %.3f is lossless
			// here and equality (NaN ↔ NaN) must hold exactly.
			if math.IsNaN(c.want[i]) != math.IsNaN(c.have[i]) ||
				(!math.IsNaN(c.want[i]) && c.want[i] != c.have[i]) {
				t.Errorf("%s[%d] = %v, want %v", c.name, i, c.have[i], c.want[i])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("time_s,total_w\n0,1\n")); err == nil {
		t.Fatal("missing columns should error")
	}
	bad := "time_s,total_w,cb_w,ups_w,pcb_target_w,pbatch_target_w,freq_inter_norm,freq_batch_norm,ups_soc\n" +
		"0,x,0,0,0,0,0,0,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "total_w") {
		t.Fatalf("unparsable cell should name its column, got %v", err)
	}
}

func TestSparkline(t *testing.T) {
	got := Sparkline([]float64{0, 1, 2, 3}, 4)
	if utf8.RuneCountInString(got) != 4 {
		t.Fatalf("sparkline %q has %d runes", got, utf8.RuneCountInString(got))
	}
	if !strings.HasPrefix(got, "▁") || !strings.HasSuffix(got, "█") {
		t.Fatalf("sparkline %q should rise from ▁ to █", got)
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input should yield empty string")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Fatal("zero width should yield empty string")
	}
	// Constant series renders the lowest tick everywhere.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	// NaN becomes a space.
	withNaN := Sparkline([]float64{math.NaN(), 1, 2}, 3)
	if !strings.HasPrefix(withNaN, " ") {
		t.Fatalf("NaN should render as space: %q", withNaN)
	}
}

func TestSparklineDownsamples(t *testing.T) {
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	got := Sparkline(long, 50)
	if utf8.RuneCountInString(got) != 50 {
		t.Fatalf("downsampled width %d", utf8.RuneCountInString(got))
	}
}

func TestPlotRow(t *testing.T) {
	row := PlotRow("total", []float64{100, 200}, 10, "W")
	if !strings.Contains(row, "total") || !strings.Contains(row, "[100.00, 200.00] W") {
		t.Fatalf("PlotRow = %q", row)
	}
	empty := PlotRow("x", []float64{math.NaN()}, 10, "W")
	if !strings.Contains(empty, "no data") {
		t.Fatalf("all-NaN PlotRow = %q", empty)
	}
}

func TestPoolMeanPooling(t *testing.T) {
	out := pool([]float64{1, 3, 5, 7}, 2)
	if len(out) != 2 || out[0] != 2 || out[1] != 6 {
		t.Fatalf("pool = %v", out)
	}
	// Shorter than width: copied through.
	out = pool([]float64{1, 2}, 5)
	if len(out) != 2 {
		t.Fatalf("short pool = %v", out)
	}
	// All-NaN bucket stays NaN.
	out = pool([]float64{math.NaN(), math.NaN(), 4, 4}, 2)
	if !math.IsNaN(out[0]) || out[1] != 4 {
		t.Fatalf("NaN pool = %v", out)
	}
}

// ReadCSV is WriteCSV's test-only inverse: the round-trip tests decode
// with it.
// It parses a series previously written by WriteCSV. Empty cells decode
// as NaN, inverting WriteCSV's encoding of NaN (policies without a batch
// budget write empty pbatch_target_w columns). Columns are resolved by
// header name, so a reordered or extended file still reads correctly as
// long as the WriteCSV columns are present.
func ReadCSV(r io.Reader) (*sim.Series, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("seriesio: reading header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	var s sim.Series
	dests := []struct {
		name string
		dst  *[]float64
	}{
		{"time_s", &s.Time}, {"total_w", &s.TotalW}, {"cb_w", &s.CBW},
		{"ups_w", &s.UPSW}, {"pcb_target_w", &s.PCbW}, {"pbatch_target_w", &s.PBatchW},
		{"freq_inter_norm", &s.FreqInter}, {"freq_batch_norm", &s.FreqBatch}, {"ups_soc", &s.SoC},
	}
	for _, d := range dests {
		if _, ok := col[d.name]; !ok {
			return nil, fmt.Errorf("seriesio: missing column %q", d.name)
		}
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("seriesio: line %d: %w", line, err)
		}
		for _, d := range dests {
			cell := row[col[d.name]]
			if cell == "" {
				*d.dst = append(*d.dst, math.NaN())
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("seriesio: line %d, column %s: %w", line, d.name, err)
			}
			*d.dst = append(*d.dst, v)
		}
	}
	return &s, nil
}

package hier

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// identical asserts two sweeps are bit-identical, series for series.
func identical(t *testing.T, serial, parallel *SweepResult) {
	t.Helper()
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count %d != %d", len(serial.Rows), len(parallel.Rows))
	}
	for r := range serial.Rows {
		if len(serial.Rows[r]) != len(parallel.Rows[r]) {
			t.Fatalf("row %d rack count differs", r)
		}
		for j := range serial.Rows[r] {
			a, b := serial.Rows[r][j].Series, parallel.Rows[r][j].Series
			for tick := range a.CBW {
				if a.CBW[tick] != b.CBW[tick] || a.SoC[tick] != b.SoC[tick] || a.TotalW[tick] != b.TotalW[tick] {
					t.Fatalf("row %d rack %d tick %d differs between serial and parallel", r, j, tick)
				}
			}
		}
	}
	for tick := range serial.BuildingAggregateW {
		if serial.BuildingAggregateW[tick] != parallel.BuildingAggregateW[tick] {
			t.Fatalf("building aggregate differs at tick %d", tick)
		}
	}
	if serial.CBTrips != parallel.CBTrips || serial.DeadlineMisses != parallel.DeadlineMisses {
		t.Fatal("summary stats differ between serial and parallel sweep")
	}
}

// TestSweepBitIdentity: the sharded parallel sweep must reproduce the
// serial run bit for bit, on a small mixed topology and on
// BenchmarkClusterHier's building, and report each row done in order.
func TestSweepBitIdentity(t *testing.T) {
	mixed := DefaultConfig()
	mixed.Rows = []RowConfig{{Racks: 3}, {Racks: 5}, {Racks: 4}}
	mixed.Scenario.DurationS = 300

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mixed", mixed},
		{"bench_quick", clusterHierConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfg
			c.Serial = true
			serial, err := RunSweep(c)
			if err != nil {
				t.Fatal(err)
			}
			c.Serial = false
			var done []int
			c.OnRowDone = func(row int) { done = append(done, row) }
			parallel, err := RunSweep(c)
			if err != nil {
				t.Fatal(err)
			}
			identical(t, serial, parallel)
			if len(done) != len(c.Rows) {
				t.Fatalf("OnRowDone order = %v, want one call per row in order", done)
			}
			for i, row := range done {
				if row != i {
					t.Fatalf("OnRowDone order = %v, want one call per row in order", done)
				}
			}
		})
	}
}

// TestSweep1000RacksBitIdentity is the acceptance-scale check: a 1000-rack
// building (4 rows × 250 racks), sharded per row on the worker pool, must
// be bit-identical to the serial run.
func TestSweep1000RacksBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-rack sweep skipped in -short mode")
	}
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 250}, {Racks: 250}, {Racks: 250}, {Racks: 250}}
	c.Scenario.DurationS = 120

	c.Serial = true
	serial, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Serial = false
	parallel, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, serial, parallel)
	if got := serial.Alloc.TotalRacks; got != 1000 {
		t.Fatalf("TotalRacks = %d, want 1000", got)
	}
}

// TestSweepCleanRunStaysInsideEveryBreaker: with auto-provisioned budgets
// and even-stagger offsets, no level of the hierarchy may register an
// exceedance or a shadow trip.
func TestSweepCleanRunStaysInsideEveryBreaker(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 6}, {Racks: 6}}
	c.Scenario.DurationS = 450
	res, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Rows {
		if res.RowExceedFrac[r] != 0 || res.RowTrips[r] != 0 {
			t.Errorf("row %d: exceed frac %g, trips %d", r, res.RowExceedFrac[r], res.RowTrips[r])
		}
	}
	if res.BuildingExceedFrac != 0 || res.BuildingTrips != 0 {
		t.Errorf("building: exceed frac %g, trips %d", res.BuildingExceedFrac, res.BuildingTrips)
	}
}

// seriesDigest is an FNV-64a digest over the bits of a rack's TotalW, CBW,
// SoC, FreqBatch and FreqInter series, in that order.
func seriesDigest(s sim.Series) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ch := range [][]float64{s.TotalW, s.CBW, s.SoC, s.FreqBatch, s.FreqInter} {
		for _, v := range ch {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// sweepDigest renders one sweep as a single line: a digest per rack, then
// each row's and the building's exceedance, trips, peak and mean, floats
// as their bits.
func sweepDigest(name string, res *SweepResult) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s:", name)
	level := func(label string, exceed float64, trips int, peak, mean float64) {
		fmt.Fprintf(&buf, " %s exceed=%016x trips=%d peak=%016x mean=%016x", label,
			math.Float64bits(exceed), trips, math.Float64bits(peak), math.Float64bits(mean))
	}
	for r, racks := range res.Rows {
		fmt.Fprintf(&buf, " row%d K=%d racks=[", r, res.Alloc.Rows[r].SlotCapacity)
		for j, rk := range racks {
			if j > 0 {
				buf.WriteByte(' ')
			}
			fmt.Fprintf(&buf, "%016x", seriesDigest(rk.Series))
		}
		buf.WriteByte(']')
		agg := res.RowAggregateW[r]
		level(fmt.Sprintf("row%d", r), res.RowExceedFrac[r], res.RowTrips[r], stats.Max(agg), stats.Mean(agg))
	}
	level("building", res.BuildingExceedFrac, res.BuildingTrips, res.BuildingPeakW, res.BuildingMeanW)
	buf.WriteByte('\n')
	return buf.String()
}

// TestSweepGolden pins RunSweep's output bits, one line per case: a
// one-row building of 4 racks auto-provisioned (K=2), the same row rated
// at 4·(rated+bonus) (K=N, every rack in phase), 16 racks at K=8, and a
// 2×4 building, each over 300 s. Regenerate deliberately with:
//
//	go test ./internal/hier -run SweepGolden -update
func TestSweepGolden(t *testing.T) {
	c := DefaultConfig()
	c.Scenario.DurationS = 300
	a, err := Allocate(c)
	if err != nil {
		t.Fatal(err)
	}
	rated, bonus := a.RatedW, a.BonusW
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		rows []RowConfig
	}{
		{"row4_auto", []RowConfig{{Racks: 4}}},
		{"row4_in_phase", []RowConfig{{Racks: 4, RatingW: 4 * (rated + bonus)}}},
		{"row16_k8", []RowConfig{{Racks: 16, RatingW: 16*rated + 8*bonus}}},
		{"building2x4", []RowConfig{{Racks: 4}, {Racks: 4}}},
	} {
		c.Rows = tc.rows
		res, err := RunSweep(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		buf.WriteString(sweepDigest(tc.name, res))
	}
	golden := filepath.Join("testdata", "sweep.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("sweep output diverged from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestConfigValidate: RunSweep validates like RunLinked, so a zero-rack
// row, a negative rating and an invalid scenario are rejected before any
// rack runs.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"zero racks", func(c *Config) { c.Rows[0].Racks = 0 }, "every row needs at least one"},
		{"negative rating", func(c *Config) { c.Rows[0].RatingW = -1 }, "finite and non-negative"},
		{"bad scenario", func(c *Config) { c.Scenario.DurationS = 0 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			c.Rows = []RowConfig{{Racks: 4}}
			c.Scenario.DurationS = 10
			tc.mutate(&c)
			_, err := RunSweep(c)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RunSweep error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNumRacksBounds: a sweep row above MaxRacks is rejected, while a row
// of exactly MaxRacks passes validation.
func TestNumRacksBounds(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: MaxRacks + 1}}
	c.Scenario.DurationS = 10
	if _, err := RunSweep(c); err == nil || !strings.Contains(err.Error(), "exceed MaxRacks") {
		t.Fatalf("RunSweep error = %v, want one containing %q", err, "exceed MaxRacks")
	}
	c.Rows = []RowConfig{{Racks: MaxRacks}}
	if err := c.Validate(); err != nil {
		t.Fatalf("a row of MaxRacks racks must validate: %v", err)
	}
}

// TestParallelMatchesSerial: a one-row static fleet of three racks, the
// shape E12 and sprintsim -racks run, must give the same rack series and
// per-rack safety counts whether its racks run on the pool or serially.
func TestParallelMatchesSerial(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 3}}
	c.Scenario.DurationS = 300

	par, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Serial = true
	ser, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, ser, par)
	for i := range par.Rows[0] {
		p, s := par.Rows[0][i], ser.Rows[0][i]
		for tk := range p.Series.FreqBatch {
			if p.Series.FreqBatch[tk] != s.Series.FreqBatch[tk] {
				t.Fatalf("rack %d batch frequency diverges at tick %d", i, tk)
			}
		}
		if p.CBTrips != s.CBTrips || p.OutageS != s.OutageS || p.DeadlineMisses != s.DeadlineMisses {
			t.Fatalf("rack %d summary stats diverge", i)
		}
	}
}

// e12Rows runs E12's two one-row sweeps of four racks: synchronized, rated
// at 4·(rated+bonus) so every rack overloads in phase, and staggered,
// auto-provisioned at the minimum packing (two concurrent overloads). It
// returns both results and the staggered row's rating, the feeder budget.
func e12Rows(t *testing.T) (syncRes, stagRes *SweepResult, feederW float64) {
	t.Helper()
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 4}}
	stagRes, err := RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	a := stagRes.Alloc
	c.Rows[0].RatingW = 4 * (a.RatedW + a.BonusW)
	syncRes, err = RunSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	return syncRes, stagRes, a.Rows[0].RatingW
}

func TestStaggeringFlattensAggregate(t *testing.T) {
	syncRes, stagRes, feederW := e12Rows(t)
	syncOver := stats.FracAbove(syncRes.BuildingAggregateW, feederW)
	stagOver := stats.FracAbove(stagRes.BuildingAggregateW, feederW)

	// Synchronized racks all overload together: aggregate peak near
	// 4 × 4.0 kW. Staggered racks keep at most ⌈4·150/450⌉ = 2 racks
	// overloading at once.
	if stagRes.BuildingPeakW >= syncRes.BuildingPeakW-500 {
		t.Fatalf("staggered peak %v not clearly below synchronized %v", stagRes.BuildingPeakW, syncRes.BuildingPeakW)
	}
	// Against a feeder sized for staggered operation, synchronization
	// violates the budget, staggering stays within it.
	if syncOver < 0.05 {
		t.Fatalf("synchronized over-budget fraction %v implausibly low", syncOver)
	}
	// The feeder is sized for exactly two concurrent overload bonuses,
	// so brief demand spikes can still poke above it — but staggering
	// must cut the violation rate by a large factor.
	if stagOver > 0.05 || stagOver > syncOver/4 {
		t.Fatalf("staggered over-budget fraction %v vs synchronized %v", stagOver, syncOver)
	}
	// Energy throughput stays comparable: staggering shifts, not sheds.
	if stagRes.BuildingMeanW < 0.9*syncRes.BuildingMeanW {
		t.Fatalf("staggered mean %v lost energy vs %v", stagRes.BuildingMeanW, syncRes.BuildingMeanW)
	}
}

func TestClusterSafetyRollups(t *testing.T) {
	_, res, _ := e12Rows(t)
	racks := res.Rows[0]
	if len(racks) != 4 {
		t.Fatalf("racks = %d", len(racks))
	}
	if res.CBTrips != 0 || res.OutageS != 0 {
		t.Fatalf("cluster safety violated: trips=%d outage=%v", res.CBTrips, res.OutageS)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("cluster misses = %d", res.DeadlineMisses)
	}
	// Racks see different traffic (different seeds).
	if racks[0].InteractiveDemand.Mean == racks[1].InteractiveDemand.Mean {
		t.Fatal("racks should not share an identical trace")
	}
}

package hier

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// testConfig returns a small building: two rows (4 and 5 racks), every
// level auto-provisioned, one full overload cycle of simulated time. Rows
// are at least the paper's four racks: the exceedance tolerance is tuned
// for tracking noise averaged over a feeder group of that size, and a
// smaller row's relative noise can cross it on single ticks.
func testConfig() Config {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 4}, {Racks: 5}}
	c.Scenario.DurationS = 450
	return c
}

// TestAllocateTightenOnly is the table-driven conservation check: whatever
// the topology and ratings, the waterfall never grants a child level more
// than its parent holds, never exceeds a row's own rating, and always
// funds at least the minimum packing (or errors).
func TestAllocateTightenOnly(t *testing.T) {
	// The paper rack: rated 3200 W, bonus 800 W, 3 slots per cycle.
	const rated, bonus = 3200, 800
	cases := []struct {
		name     string
		building float64
		rows     []RowConfig
		wantK    []int   // expected per-row slot capacities ("" = skip)
		wantErr  string  // non-empty = Allocate must fail with this substring
		wantBldg float64 // expected resolved building budget (0 = skip)
	}{
		{
			name: "auto-everything minimum packing",
			rows: []RowConfig{{Racks: 3}, {Racks: 4}},
			// Kmin = ceil(3/3)=1, ceil(4/3)=2; auto ratings leave no spare.
			wantK:    []int{1, 2},
			wantBldg: (3*rated + 1*bonus) + (4*rated + 2*bonus),
		},
		{
			name:     "generous building capped by row ratings",
			building: 1e9,
			rows: []RowConfig{
				{Racks: 3, RatingW: 3*rated + 3*bonus},
				{Racks: 4, RatingW: 4*rated + 4*bonus},
			},
			// Spare headroom is huge; rows cap at their own ratings.
			wantK: []int{3, 4},
		},
		{
			name: "tight building rations round-robin",
			// Funds the minimum packing (1+2 bonuses) plus two spare
			// bonuses: round-robin gives one to each row.
			building: 7*rated + 5*bonus,
			rows: []RowConfig{
				{Racks: 3, RatingW: 3*rated + 3*bonus},
				{Racks: 4, RatingW: 4*rated + 4*bonus},
			},
			wantK: []int{2, 3},
		},
		{
			name:     "building cannot fund minimum packing",
			building: 7*rated + 2*bonus, // needs 3 bonuses minimum
			rows:     []RowConfig{{Racks: 3}, {Racks: 4}},
			wantErr:  "cannot fund the minimum packing",
		},
		{
			name:    "row rating below its own minimum packing",
			rows:    []RowConfig{{Racks: 4, RatingW: 4*rated + 1*bonus}},
			wantErr: "for a full packing",
		},
		{
			name:     "sixteen-rack acceptance rows",
			building: 4 * (16*rated + 6*bonus),
			rows:     []RowConfig{{Racks: 16}, {Racks: 16}, {Racks: 16}, {Racks: 16}},
			wantK:    []int{6, 6, 6, 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			c.BuildingBudgetW = tc.building
			c.Rows = tc.rows
			a, err := Allocate(c)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Allocate error = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantBldg != 0 && math.Abs(a.BuildingBudgetW-tc.wantBldg) > 1e-6 {
				t.Errorf("building budget = %g, want %g", a.BuildingBudgetW, tc.wantBldg)
			}
			// Conservation at the building level.
			if got := a.TotalGrantedW(); got > a.BuildingBudgetW+1e-6 {
				t.Errorf("granted %g W exceeds building budget %g W", got, a.BuildingBudgetW)
			}
			for i, r := range a.Rows {
				if tc.wantK != nil && r.SlotCapacity != tc.wantK[i] {
					t.Errorf("row %d slot capacity = %d, want %d", i, r.SlotCapacity, tc.wantK[i])
				}
				// Conservation at the row level, and the packing floor.
				if r.BudgetW > r.RatingW+1e-6 {
					t.Errorf("row %d budget %g W exceeds its rating %g W", i, r.BudgetW, r.RatingW)
				}
				if kmin := (r.Racks + a.NumSlots - 1) / a.NumSlots; r.SlotCapacity < kmin {
					t.Errorf("row %d slot capacity %d below minimum packing %d", i, r.SlotCapacity, kmin)
				}
				want := float64(r.Racks)*a.RatedW + float64(r.SlotCapacity)*a.BonusW
				if math.Abs(r.BudgetW-want) > 1e-6 {
					t.Errorf("row %d budget %g W inconsistent with K=%d (want %g)", i, r.BudgetW, r.SlotCapacity, want)
				}
			}
		})
	}
}

// TestValidateRowSliceLengths checks that the per-row slices Obs and
// Resume are rejected, not indexed out of range or silently truncated,
// when their length does not fit the row count — and that an Obs plane
// with fewer rack planes than its row has racks is rejected up front.
func TestValidateRowSliceLengths(t *testing.T) {
	cases := []struct {
		name    string
		obs     []*obs.Cluster
		resume  [][]*checkpoint.Snapshot
		wantErr string
	}{
		{name: "none"},
		{name: "obs one per row", obs: make([]*obs.Cluster, 4)},
		{name: "resume shorter than rows", resume: make([][]*checkpoint.Snapshot, 2)},
		{name: "obs short", obs: make([]*obs.Cluster, 1), wantErr: "Obs has 1 entries"},
		{name: "obs long", obs: make([]*obs.Cluster, 5), wantErr: "Obs has 5 entries"},
		{name: "resume long", resume: make([][]*checkpoint.Snapshot, 5), wantErr: "Resume has 5 entries"},
		{name: "obs plane short of racks", obs: []*obs.Cluster{nil, obs.NewCluster(2, obs.DefaultDetectorConfig()), nil, nil},
			wantErr: "row 1: observability plane has 2 rack planes for 16 racks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			c.Obs, c.Resume = tc.obs, tc.resume
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate error = %v, want substring %q", err, tc.wantErr)
			}
			var pe *sim.PanicError
			if _, err := RunLinked(c); err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RunLinked error = %v, want a plain error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunLinkedConservationPerPeriod runs a small clean building and checks
// the tighten-only invariant at runtime, every tick: the sum of the racks'
// granted CB budgets (the policies' P_cb targets) never exceeds the row
// budget, the row budgets never sum above the building budget, and no
// level's shadow breaker records an exceedance or trip.
func TestRunLinkedConservationPerPeriod(t *testing.T) {
	c := testConfig()
	c.Serial = true
	res, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Alloc.TotalGrantedW(); got > res.Alloc.BuildingBudgetW+1e-6 {
		t.Fatalf("granted %g W exceeds building budget %g W", got, res.Alloc.BuildingBudgetW)
	}
	for r, row := range res.Rows {
		budget := res.Alloc.Rows[r].BudgetW
		steps := len(row.AggregateW)
		for tick := 0; tick < steps; tick++ {
			var sum float64
			for _, rack := range row.Racks {
				if v := rack.Series.PCbW[tick]; !math.IsNaN(v) {
					sum += v
				}
			}
			if sum > budget*(1+1e-9) {
				t.Fatalf("row %d tick %d: ΣP_cb targets %g W exceed the row budget %g W", r, tick, sum, budget)
			}
		}
		if row.FeederExceedFrac != 0 || row.FeederTrips != 0 {
			t.Errorf("row %d: exceed frac %g, trips %d on a clean run", r, row.FeederExceedFrac, row.FeederTrips)
		}
	}
	if res.BuildingExceedFrac != 0 || res.BuildingTrips != 0 {
		t.Errorf("building: exceed frac %g, trips %d on a clean run", res.BuildingExceedFrac, res.BuildingTrips)
	}
	if res.CBTrips != 0 || res.OutageS != 0 {
		t.Errorf("safety: %d rack trips, %g s outage on a clean run", res.CBTrips, res.OutageS)
	}
}

// TestRunLinkedRowsInterleave pins the worker schedule: with one worker —
// Config.Serial, or GOMAXPROCS 1 — every row ticks step 0 in the first
// round, in row order, so each row's first decision lands before any row
// runs a full round, instead of after the rows ahead of it have run to
// their end. Later rounds advance each row roundTicks ticks in row order;
// the run ends in a partial round.
func TestRunLinkedRowsInterleave(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 2}, {Racks: 2}, {Racks: 2}, {Racks: 2}}
	steps := 2*roundTicks + 6
	c.Scenario.DurationS = float64(steps) * c.Scenario.DtS
	var want [][2]int // (row, step) in schedule order
	for row := range c.Rows {
		want = append(want, [2]int{row, 0})
	}
	for first := 1; first < steps; first += roundTicks {
		for row := range c.Rows {
			for step := first; step < min(first+roundTicks, steps); step++ {
				want = append(want, [2]int{row, step})
			}
		}
	}
	for _, tc := range []struct {
		name   string
		serial bool
		procs  int
	}{
		{"serial", true, 0},
		{"gomaxprocs1", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			cfg := c
			cfg.Serial = tc.serial
			var mu sync.Mutex
			var seen [][2]int // (row, step) in call order
			cfg.OnRowTick = func(row, step int, _, _ float64) {
				mu.Lock()
				seen = append(seen, [2]int{row, step})
				mu.Unlock()
			}
			if _, err := RunLinked(cfg); err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(want) {
				t.Fatalf("%d row ticks, want %d", len(seen), len(want))
			}
			for i, got := range seen {
				if got != want[i] {
					t.Fatalf("row tick %d is (row, step) %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

// clusterLinkConfig is BenchmarkClusterLink's group: one row of two racks
// over 300 s, auto-provisioned at its minimum packing.
func clusterLinkConfig() Config {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 2}}
	c.Scenario.DurationS = 300
	return c
}

// clusterHierConfig is BenchmarkClusterHier's building: two rows of four
// racks over 300 s.
func clusterHierConfig() Config {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 4}, {Racks: 4}}
	c.Scenario.DurationS = 300
	return c
}

// TestRunLinkedParallelMatchesSerial: rows only share read-only
// configuration and racks only exchange state through the link on their
// row's coordinating goroutine, so the concurrent row and rack fan-out
// must be bit-identical to the serial path in every rack's series, every
// row's aggregate and link accounting, and the building aggregate.
// bench_quick is BenchmarkClusterHier's building, whose clean network must
// also keep every lease renewed and every level's shadow breaker closed;
// three_rows does not divide evenly over two or four workers; default is
// the 4×16-rack building, skipped in -short mode.
func TestRunLinkedParallelMatchesSerial(t *testing.T) {
	threeRows := DefaultConfig()
	threeRows.Rows = []RowConfig{{Racks: 4}, {Racks: 5}, {Racks: 4}}
	threeRows.Scenario.DurationS = 300
	for _, tc := range []struct {
		name  string
		cfg   Config
		clean bool
	}{
		{"mixed", testConfig(), false},
		{"three_rows", threeRows, false},
		{"bench_quick", clusterHierConfig(), true},
		{"default", DefaultConfig(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "default" && testing.Short() {
				t.Skip("4×16-rack linked run skipped in -short mode")
			}
			res := checkParallelMatchesSerial(t, tc.cfg)
			if tc.clean {
				assertClean(t, res)
			}
		})
	}
}

// TestRunLinkedOneRowParallelMatchesSerial is the serial-vs-parallel
// check on one-row buildings, where only the rack fan-out is concurrent —
// including under active link faults. bench_quick is BenchmarkClusterLink's
// group, which must also run clean; default is the paper's four-rack row.
func TestRunLinkedOneRowParallelMatchesSerial(t *testing.T) {
	faulted := threeRackRow()
	faulted.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.LinkLoss, OnsetS: 50, DurationS: 200, Severity: 0.3},
		{Kind: faults.LinkDelay, OnsetS: 50, DurationS: 200, Severity: 3},
		partitionAt(0, 150, 120),
	}

	for _, tc := range []struct {
		name  string
		cfg   Config
		clean bool
	}{
		{"faulted", faulted, false},
		{"bench_quick", clusterLinkConfig(), true},
		{"default", rowConfig(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := checkParallelMatchesSerial(t, tc.cfg)
			if tc.clean {
				assertClean(t, res)
			}
		})
	}
}

// assertClean fails unless a fault-free linked run renewed every lease on
// schedule (zero degraded seconds) and no row's or the building's shadow
// breaker tripped.
func assertClean(t *testing.T, res *Result) {
	t.Helper()
	if d := res.DegradedS(); d != 0 {
		t.Errorf("%g degraded seconds on a clean network, want 0", d)
	}
	for r, row := range res.Rows {
		if row.FeederTrips != 0 {
			t.Errorf("row %d: %d feeder trips on a clean network, want 0", r, row.FeederTrips)
		}
	}
	if res.BuildingTrips != 0 {
		t.Errorf("%d building trips on a clean network, want 0", res.BuildingTrips)
	}
}

// BenchmarkClusterLink times what the control link costs on a clean
// network: clusterLinkConfig's row as a static sweep and as a linked run
// (transport, leases, heartbeats and coordinator in the loop every tick).
func BenchmarkClusterLink(b *testing.B) {
	c := clusterLinkConfig()
	b.Run("static", func(b *testing.B) { benchSweep(b, c) })
	b.Run("linked", func(b *testing.B) { benchLinked(b, c) })
}

// BenchmarkClusterHier times clusterHierConfig's building linked, and as a
// static sweep run serially and sharded across rows.
func BenchmarkClusterHier(b *testing.B) {
	c := clusterHierConfig()
	b.Run("linked", func(b *testing.B) { benchLinked(b, c) })
	serial := c
	serial.Serial = true
	b.Run("sweep-serial", func(b *testing.B) { benchSweep(b, serial) })
	b.Run("sweep", func(b *testing.B) { benchSweep(b, c) })
}

func benchLinked(b *testing.B, c Config) {
	for i := 0; i < b.N; i++ {
		if _, err := RunLinked(c); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweep(b *testing.B, c Config) {
	for i := 0; i < b.N; i++ {
		if _, err := RunSweep(c); err != nil {
			b.Fatal(err)
		}
	}
}

// checkParallelMatchesSerial runs cfg serially and in parallel, fails on
// the first difference in any rack series, link counter, row or building
// aggregate, or summary statistic, and returns the serial result.
func checkParallelMatchesSerial(t *testing.T, cfg Config) *Result {
	t.Helper()
	c := cfg
	c.Serial = true
	serial, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Serial = false
	parallel, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count %d != %d", len(serial.Rows), len(parallel.Rows))
	}
	for r := range serial.Rows {
		sr, pr := serial.Rows[r], parallel.Rows[r]
		if len(sr.Racks) != len(pr.Racks) {
			t.Fatalf("row %d: rack count %d != %d", r, len(sr.Racks), len(pr.Racks))
		}
		for j := range sr.Racks {
			a, b := sr.Racks[j].Series, pr.Racks[j].Series
			if len(a.TotalW) != len(b.TotalW) {
				t.Fatalf("row %d rack %d: %d vs %d recorded ticks", r, j, len(a.TotalW), len(b.TotalW))
			}
			for tk := range a.TotalW {
				if a.TotalW[tk] != b.TotalW[tk] || a.CBW[tk] != b.CBW[tk] || a.SoC[tk] != b.SoC[tk] ||
					a.FreqBatch[tk] != b.FreqBatch[tk] || a.FreqInter[tk] != b.FreqInter[tk] {
					t.Fatalf("row %d rack %d diverges at tick %d", r, j, tk)
				}
			}
			if !clientStatsEqual(sr.Clients[j], pr.Clients[j]) {
				t.Fatalf("row %d rack %d link stats diverge: %+v vs %+v", r, j, sr.Clients[j], pr.Clients[j])
			}
		}
		for tk := range sr.AggregateW {
			if sr.AggregateW[tk] != pr.AggregateW[tk] {
				t.Fatalf("row %d aggregate diverges at tick %d", r, tk)
			}
		}
		if sr.Transport != pr.Transport || sr.Coord != pr.Coord {
			t.Fatalf("row %d link accounting diverges:\nserial   %+v / %+v\nparallel %+v / %+v",
				r, sr.Transport, sr.Coord, pr.Transport, pr.Coord)
		}
	}
	for i := range serial.BuildingAggregateW {
		if serial.BuildingAggregateW[i] != parallel.BuildingAggregateW[i] {
			t.Fatalf("tick %d: serial %v != parallel %v", i, serial.BuildingAggregateW[i], parallel.BuildingAggregateW[i])
		}
	}
	if serial.DegradedS() != parallel.DegradedS() || serial.CBTrips != parallel.CBTrips {
		t.Fatal("summary stats differ between serial and parallel row execution")
	}
	return serial
}

// TestPartitionDegradesOneRow fails one row's network for 300 s: that row
// must spend time in the degraded fallback while the other rows stay fully
// coordinated, and no level's shadow breaker may record a trip — a
// partition degrades one subtree, never the building.
func TestPartitionDegradesOneRow(t *testing.T) {
	c := DefaultConfig()
	c.Rows = []RowConfig{
		{Racks: 4},
		{Racks: 4, Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkPartition, Server: faults.AllRacks, OnsetS: 100, DurationS: 300, Severity: 1},
		}}},
		{Racks: 4},
	}
	res, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[1].DegradedS(); got == 0 {
		t.Error("partitioned row recorded zero degraded seconds")
	}
	for _, r := range []int{0, 2} {
		if got := res.Rows[r].DegradedS(); got != 0 {
			t.Errorf("healthy row %d recorded %g degraded seconds", r, got)
		}
	}
	if res.BuildingTrips != 0 || res.BuildingExceedFrac != 0 {
		t.Errorf("building: %d trips, exceed frac %g under a single-row partition", res.BuildingTrips, res.BuildingExceedFrac)
	}
	for r, row := range res.Rows {
		if row.FeederTrips != 0 {
			t.Errorf("row %d: %d shadow trips", r, row.FeederTrips)
		}
	}
	if res.CBTrips != 0 {
		t.Errorf("%d rack breaker trips", res.CBTrips)
	}
}

// TestRunLinkedMetricsAndHooks exercises the registry instruments and the
// per-tick progress hook.
func TestRunLinkedMetricsAndHooks(t *testing.T) {
	c := testConfig()
	c.Metrics = telemetry.NewRegistry()
	var mu chan struct{} // serialize the concurrent hook without sync import
	mu = make(chan struct{}, 1)
	ticks := map[int]int{}
	c.OnRowTick = func(row, step int, nowS, aggW float64) {
		mu <- struct{}{}
		if step > ticks[row] {
			ticks[row] = step
		}
		<-mu
	}
	// RackOptions is called from the concurrently running rows.
	var opts atomic.Int64
	c.RackOptions = func(row, rack int) sim.RunOptions {
		opts.Add(1)
		return sim.RunOptions{}
	}
	res, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	steps := len(res.BuildingAggregateW)
	for r := range c.Rows {
		if ticks[r] != steps-1 {
			t.Errorf("row %d last observed step = %d, want %d", r, ticks[r], steps-1)
		}
	}
	if want := int64(4 + 5); opts.Load() != want {
		t.Errorf("RackOptions called %d times, want %d", opts.Load(), want)
	}
	var found bool
	for _, m := range c.Metrics.Snapshot() {
		if m.Name == "hier_building_exceed_frac" {
			found = true
			if m.Value != 0 {
				t.Errorf("hier_building_exceed_frac = %g, want 0", m.Value)
			}
		}
	}
	if !found {
		t.Error("hier_building_exceed_frac not registered")
	}
}

// TestShadowTolerancesShared pins the feeder tolerance every level is
// scored with to the value the documentation states, so a future re-tuning
// cannot silently diverge code and docs.
func TestShadowTolerancesShared(t *testing.T) {
	if FeederTolerance != 0.035 {
		t.Fatalf("FeederTolerance = %g; DESIGN.md §12/§14 document 0.035 — update both if this is intentional", FeederTolerance)
	}
}

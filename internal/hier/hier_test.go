package hier

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/cluster"
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
// when their length does not fit the row count.
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

// TestRunLinkedParallelMatchesSerial: rows only share read-only
// configuration, so the concurrent row fan-out must be bit-identical to
// the serial path in every rack's series and in the building aggregate.
// The last two rows are the benchmark's cluster_hier configs (quick and
// full mode); the 4×16-rack full one is skipped in -short mode.
func TestRunLinkedParallelMatchesSerial(t *testing.T) {
	quick := DefaultConfig()
	quick.Rows = []RowConfig{{Racks: 4}, {Racks: 4}}
	quick.Scenario.DurationS = 300

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mixed", testConfig()},
		{"bench_quick", quick},
		{"default", DefaultConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "default" && testing.Short() {
				t.Skip("4×16-rack linked run skipped in -short mode")
			}
			c := tc.cfg
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
				if len(serial.Rows[r].Racks) != len(parallel.Rows[r].Racks) {
					t.Fatalf("row %d: rack count %d != %d", r, len(serial.Rows[r].Racks), len(parallel.Rows[r].Racks))
				}
				for j := range serial.Rows[r].Racks {
					a, b := serial.Rows[r].Racks[j].Series, parallel.Rows[r].Racks[j].Series
					if len(a.TotalW) != len(b.TotalW) {
						t.Fatalf("row %d rack %d: %d vs %d recorded ticks", r, j, len(a.TotalW), len(b.TotalW))
					}
					for tk := range a.TotalW {
						if a.TotalW[tk] != b.TotalW[tk] || a.CBW[tk] != b.CBW[tk] || a.SoC[tk] != b.SoC[tk] ||
							a.FreqBatch[tk] != b.FreqBatch[tk] || a.FreqInter[tk] != b.FreqInter[tk] {
							t.Fatalf("row %d rack %d diverges at tick %d", r, j, tk)
						}
					}
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
		})
	}
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

// TestShadowTolerancesShared pins the hier scoring to the cluster's: the
// tolerance constant is shared, so a future re-tuning cannot silently
// diverge the levels.
func TestShadowTolerancesShared(t *testing.T) {
	if cluster.FeederTolerance != 0.035 {
		t.Fatalf("cluster.FeederTolerance = %g; DESIGN.md §12/§14 document 0.035 — update both if this is intentional", cluster.FeederTolerance)
	}
}

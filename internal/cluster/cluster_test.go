package cluster

import (
	"testing"

	"sprintcon/internal/faults"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumRacks = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero racks should error")
	}
	bad = DefaultConfig()
	bad.FeederBudgetW = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative budget should error")
	}
	bad = DefaultConfig()
	bad.Scenario.DurationS = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad scenario should error")
	}
	if _, err := Run(bad); err == nil {
		t.Fatal("Run should reject invalid config")
	}
	// Static offsets have no control link, so link-scoped faults are
	// rejected (a linked run is a one-row hier building).
	bad = DefaultConfig()
	bad.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.LinkPartition, Server: 0, OnsetS: 100, DurationS: 50, Severity: 1},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("static-offset cluster accepted a link-scoped fault")
	}
}

func TestStaggeringFlattensAggregate(t *testing.T) {
	sync := DefaultConfig()
	sync.Stagger = false
	syncRes, err := Run(sync)
	if err != nil {
		t.Fatal(err)
	}

	stag := DefaultConfig()
	stag.Stagger = true
	stagRes, err := Run(stag)
	if err != nil {
		t.Fatal(err)
	}

	// Synchronized racks all overload together: aggregate peak near
	// 4 × 4.0 kW. Staggered racks keep at most ⌈4·150/450⌉ = 2 racks
	// overloading at once.
	if stagRes.PeakW >= syncRes.PeakW-500 {
		t.Fatalf("staggered peak %v not clearly below synchronized %v", stagRes.PeakW, syncRes.PeakW)
	}
	// Against a feeder sized for staggered operation, synchronization
	// violates the budget, staggering stays within it.
	if syncRes.OverBudgetFrac < 0.05 {
		t.Fatalf("synchronized over-budget fraction %v implausibly low", syncRes.OverBudgetFrac)
	}
	// The feeder is sized for exactly two concurrent overload bonuses,
	// so brief demand spikes can still poke above it — but staggering
	// must cut the violation rate by a large factor.
	if stagRes.OverBudgetFrac > 0.05 || stagRes.OverBudgetFrac > syncRes.OverBudgetFrac/4 {
		t.Fatalf("staggered over-budget fraction %v vs synchronized %v", stagRes.OverBudgetFrac, syncRes.OverBudgetFrac)
	}
	// Energy throughput stays comparable: staggering shifts, not sheds.
	if stagRes.MeanW < 0.9*syncRes.MeanW {
		t.Fatalf("staggered mean %v lost energy vs %v", stagRes.MeanW, syncRes.MeanW)
	}
}

func TestClusterSafetyRollups(t *testing.T) {
	res, err := Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) != 4 {
		t.Fatalf("racks = %d", len(res.Racks))
	}
	if res.CBTrips != 0 || res.OutageS != 0 {
		t.Fatalf("cluster safety violated: trips=%d outage=%v", res.CBTrips, res.OutageS)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("cluster misses = %d", res.DeadlineMisses)
	}
	// Racks see different traffic (different seeds).
	if res.Racks[0].InteractiveDemand.Mean == res.Racks[1].InteractiveDemand.Mean {
		t.Fatal("racks should not share an identical trace")
	}
}

func TestNumRacksBounds(t *testing.T) {
	bad := DefaultConfig()
	bad.NumRacks = MaxRacks + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("NumRacks above MaxRacks should error")
	}
	ok := DefaultConfig()
	ok.NumRacks = MaxRacks
	ok.Scenario.DurationS = 0 // invalid scenario, but NumRacks itself passes
	if err := ok.Validate(); err == nil || err.Error() == "cluster: NumRacks 1024 exceeds MaxRacks 1024" {
		t.Fatalf("NumRacks = MaxRacks must pass the bounds check, got %v", err)
	}
}

// Parallel and serial cluster runs must produce bit-identical results: every
// rack is an independent seeded simulation, so scheduling cannot leak into
// the output.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRacks = 3
	cfg.Scenario.DurationS = 300

	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Serial = true
	ser, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(par.Racks) != len(ser.Racks) {
		t.Fatalf("rack counts differ: %d vs %d", len(par.Racks), len(ser.Racks))
	}
	for i := range par.Racks {
		p, s := par.Racks[i], ser.Racks[i]
		if len(p.Series.TotalW) != len(s.Series.TotalW) {
			t.Fatalf("rack %d series lengths differ", i)
		}
		for tk := range p.Series.TotalW {
			if p.Series.TotalW[tk] != s.Series.TotalW[tk] || p.Series.CBW[tk] != s.Series.CBW[tk] ||
				p.Series.SoC[tk] != s.Series.SoC[tk] || p.Series.FreqBatch[tk] != s.Series.FreqBatch[tk] {
				t.Fatalf("rack %d diverges at tick %d", i, tk)
			}
		}
		if p.CBTrips != s.CBTrips || p.OutageS != s.OutageS || p.DeadlineMisses != s.DeadlineMisses {
			t.Fatalf("rack %d summary stats diverge", i)
		}
	}
	for tk := range par.AggregateW {
		if par.AggregateW[tk] != ser.AggregateW[tk] {
			t.Fatalf("aggregate diverges at tick %d", tk)
		}
	}
}

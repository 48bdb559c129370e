package hier

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"sprintcon/internal/alloc"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/link"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// rowConfig is the paper's four-rack feeder group as a one-row building,
// auto-provisioned at its minimum packing: 4·rated + 2·bonus = 14.4 kW,
// two concurrent overloads.
func rowConfig() Config {
	c := DefaultConfig()
	c.Rows = []RowConfig{{Racks: 4}}
	return c
}

// threeRackRow is a three-rack row rated for two concurrent overloads
// (3·rated + 2·bonus, one more than its minimum packing) over 400 s.
func threeRackRow() Config {
	c := DefaultConfig()
	rated := c.Scenario.Breaker.RatedPower
	c.Rows = []RowConfig{{Racks: 3, RatingW: 3*rated + 0.25*rated*2}}
	c.Scenario.DurationS = 400
	c.Scenario.BurstDurationS = 400
	return c
}

// linkedRow runs a one-row building and returns its row.
func linkedRow(t *testing.T, c Config) *RowResult {
	t.Helper()
	res, err := RunLinked(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0]
}

// partitionAt cuts rack `rack` off the control link for [onset, onset+dur).
func partitionAt(rack int, onset, dur float64) faults.Fault {
	return faults.Fault{Kind: faults.LinkPartition, Server: rack, OnsetS: onset, DurationS: dur, Severity: 1}
}

// clientStatsEqual is ClientStats equality with NaN-tolerant LastResyncS
// (NaN marks "never resynced" and must compare equal to itself).
func clientStatsEqual(a, b link.ClientStats) bool {
	if math.IsNaN(a.LastResyncS) != math.IsNaN(b.LastResyncS) {
		return false
	}
	if !math.IsNaN(a.LastResyncS) && a.LastResyncS != b.LastResyncS {
		return false
	}
	a.LastResyncS, b.LastResyncS = 0, 0
	return a == b
}

func TestLinkedConfigValidation(t *testing.T) {
	const rated, bonus = 3200, 800
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nan feeder budget", func(c *Config) { c.Rows[0].RatingW = math.NaN() }},
		{"inf feeder budget", func(c *Config) { c.Rows[0].RatingW = math.Inf(1) }},
		{"negative feeder budget", func(c *Config) { c.Rows[0].RatingW = -1 }},
		{"feeder budget below one overload bonus", func(c *Config) {
			// N·rated + less than one bonus ⇒ slot capacity K = 0.
			c.Rows[0].RatingW = 4*rated + 100
		}},
		{"more racks than overload slots can hold", func(c *Config) {
			// K=2 per slot × 3 slots holds 6 racks, not 7.
			c.Rows[0] = RowConfig{Racks: 7, RatingW: 7*rated + 2*bonus}
		}},
		{"more racks than MaxRacks", func(c *Config) { c.Rows[0].Racks = MaxRacks + 1 }},
		{"partition target beyond rack count", func(c *Config) {
			c.Scenario.Faults.Faults = append(c.Scenario.Faults.Faults, partitionAt(9, 100, 50))
		}},
		{"alloc override without overload headroom", func(c *Config) {
			acfg := alloc.DefaultConfig(c.Scenario.Breaker.RatedPower, c.Scenario.Breaker.TripBudget())
			acfg.OverloadDegree = 1 // bonus = rated·(degree−1) = 0
			c.SprintCon.AllocOverride = &acfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := rowConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("want validation error, got nil")
			}
			if _, err := RunLinked(cfg); err == nil {
				t.Fatal("RunLinked accepted an invalid config")
			}
		})
	}
	if err := rowConfig().Validate(); err != nil {
		t.Fatalf("base linked config invalid: %v", err)
	}
	// The degenerate allocator override must be reported as its real cause —
	// the overload degree — not as a misleading derived-slot-capacity error.
	degenerate := rowConfig()
	dcfg := alloc.DefaultConfig(degenerate.Scenario.Breaker.RatedPower, degenerate.Scenario.Breaker.TripBudget())
	dcfg.OverloadDegree = 1
	degenerate.SprintCon.AllocOverride = &dcfg
	if err := degenerate.Validate(); err == nil || !strings.Contains(err.Error(), "OverloadDegree") {
		t.Fatalf("want an OverloadDegree error for a degree-1 override, got %v", err)
	}
	// Link-scoped faults are valid in a linked configuration (the
	// single-rack form rejects them).
	withFault := rowConfig()
	withFault.Scenario.Faults.Faults = append(withFault.Scenario.Faults.Faults, partitionAt(0, 100, 50))
	if err := withFault.Validate(); err != nil {
		t.Fatalf("linked row rejected a link fault: %v", err)
	}
}

// A zero row rating is not an error: the row is auto-provisioned at its
// minimum packing, N·rated + ⌈N/slots⌉·bonus, and the linked run is
// budgeted and scored against that.
func TestLinkedZeroFeederBudgetAutoProvisions(t *testing.T) {
	cfg := rowConfig()
	cfg.Rows[0].RatingW = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero row rating rejected: %v", err)
	}
	a, err := Allocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Rows[0]
	wantK := (ra.Racks + a.NumSlots - 1) / a.NumSlots
	want := float64(ra.Racks)*a.RatedW + float64(wantK)*a.BonusW
	if ra.SlotCapacity != wantK || ra.RatingW != want || ra.BudgetW != want {
		t.Fatalf("auto-provisioned row: K=%d rating %g budget %g, want K=%d and %g W",
			ra.SlotCapacity, ra.RatingW, ra.BudgetW, wantK, want)
	}
	res := linkedRow(t, cfg)
	if res.CBTrips != 0 || res.FeederTrips != 0 {
		t.Fatalf("auto-provisioned row unsafe: rack trips=%d feeder trips=%d", res.CBTrips, res.FeederTrips)
	}
}

// A fault-free linked run must behave like the statically staggered cluster:
// coordinated sprinting, no degraded time, and a feeder that stays at or
// under its budget.
func TestLinkedHealthyStaysCoordinated(t *testing.T) {
	res := linkedRow(t, rowConfig())
	if res.CBTrips != 0 || res.OutageS != 0 || res.FeederTrips != 0 {
		t.Fatalf("healthy linked run unsafe: rack trips=%d outage=%g feeder trips=%d",
			res.CBTrips, res.OutageS, res.FeederTrips)
	}
	if res.FeederExceedFrac > 0.01 {
		t.Fatalf("healthy linked run exceeds feeder budget %.1f%% of the time", 100*res.FeederExceedFrac)
	}
	if d := res.DegradedS(); d != 0 {
		t.Fatalf("healthy linked run spent %g rack-seconds degraded", d)
	}
	if res.Resyncs() != 0 {
		t.Fatalf("healthy linked run logged %d resyncs", res.Resyncs())
	}
	for i, c := range res.Clients {
		if c.Expiries != 0 {
			t.Fatalf("rack %d lease expired %d times on a healthy link", i, c.Expiries)
		}
	}
	if res.Transport.GrantsLost != 0 || res.Transport.GrantsPartition != 0 {
		t.Fatalf("healthy link lost traffic: %+v", res.Transport)
	}
	// The energy throughput must match coordinated sprinting, not the
	// degraded fallback: mean draw comfortably above N·rated would only
	// hold with overloads running.
	if res.MeanW < 4*DefaultConfig().Scenario.Breaker.RatedPower*0.95 {
		t.Fatalf("linked mean draw %g W suggests overloads never ran", res.MeanW)
	}
	for i, inv := range res.Invariants {
		if inv.CBMargin != 0 || inv.SoCFloor != 0 {
			t.Fatalf("rack %d invariant breaches %+v", i, inv)
		}
	}
	// The lock-step loop drives every rack through Runner.Step and never
	// opens a quiescent span: the lease budget is always active.
	for i, r := range res.Racks {
		if r.Engine.Spans != 0 || r.Engine.TicksSkipped != 0 {
			t.Fatalf("rack %d fast-forwarded inside a lock-step linked run: %+v", i, r.Engine)
		}
	}
}

// A sustained partition must push the cut-off rack into the degraded
// fallback within one control period of lease expiry, and re-sync it within
// one control period of the heal.
func TestLinkedPartitionDegradesAndResyncs(t *testing.T) {
	cfg := rowConfig()
	const onset, dur = 300.0, 300.0
	cfg.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, onset, dur)}

	res := linkedRow(t, cfg)
	ctl := cfg.SprintCon.ControlPeriodS
	if ctl == 0 {
		ctl = 4
	}

	c0 := res.Clients[0]
	if c0.Expiries == 0 || c0.Resyncs == 0 {
		t.Fatalf("partitioned rack never cycled degraded: %+v", c0)
	}
	// Degraded entry: the last pre-partition grant expires at most
	// onset+TTL; from expiry to fallback is at most one control period.
	minDegraded := dur - link.LeaseTTLS - ctl
	if c0.DegradedS < minDegraded {
		t.Fatalf("rack 0 degraded %g s, want ≥ %g (partition %g s minus lease tail)", c0.DegradedS, minDegraded, dur)
	}
	// Re-entry: a fresh grant must land within one control period of the
	// heal (heartbeat out, grant back, each one tick of transit).
	heal := onset + dur
	if c0.LastResyncS > heal+ctl {
		t.Fatalf("rack 0 re-synced at t=%g, more than one control period after the heal at t=%g", c0.LastResyncS, heal)
	}
	// The coordinator noticed, reclaimed the slot, and repacked.
	if res.Coord.Presumed == 0 || res.Coord.Repacks == 0 || res.Coord.Probes == 0 {
		t.Fatalf("coordinator never reacted to the partition: %+v", res.Coord)
	}
	// Unpartitioned racks never degraded.
	for i := 1; i < len(res.Clients); i++ {
		if res.Clients[i].Expiries != 0 {
			t.Fatalf("rack %d lease expired despite a healthy link: %+v", i, res.Clients[i])
		}
	}
	// And through all of it the feeder stayed within budget and nothing
	// tripped: the lease discipline is what makes the partition safe.
	if res.CBTrips != 0 || res.FeederTrips != 0 {
		t.Fatalf("partition run tripped: rack=%d feeder=%d", res.CBTrips, res.FeederTrips)
	}
	if res.FeederExceedFrac > 0.01 {
		t.Fatalf("partition run exceeded the feeder budget %.1f%% of ticks", 100*res.FeederExceedFrac)
	}
}

// The E19 headline: under the same sustained partition, the naive
// always-trust-last-grant client keeps sprinting in a slot the coordinator
// has reassigned — three concurrent overloads against a budget funding two —
// while the lease discipline stays within budget.
func TestLinkedNaiveExceedsWhereLeaseHolds(t *testing.T) {
	base := rowConfig()
	// Cut rack 0 off before anyone has overloaded: its slot is reassigned
	// to rack 2 within ~30 s (lease expiry + beat timeout), and since rack 2
	// has no overload history yet, the client-side recovery guard does not
	// delay it — it only sits out the in-flight first window. The second
	// slot-0 window (450–600 s) is where the schedules collide: racks 1 and
	// 2 own it, and the naive rack 0 still believes its stale grant covers
	// it — three concurrent overloads against a budget funding two.
	base.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, 10, 690)}

	naive := base
	naive.NaiveTrustLastGrant = true
	nres, lres := linkedRow(t, naive), linkedRow(t, base)

	if nres.FeederExceedFrac < 0.02 && nres.FeederTrips == 0 {
		t.Fatalf("naive client never overran the feeder: exceed=%.2f%% trips=%d",
			100*nres.FeederExceedFrac, nres.FeederTrips)
	}
	if lres.FeederExceedFrac > 0.01 || lres.FeederTrips != 0 {
		t.Fatalf("lease client overran the feeder: exceed=%.2f%% trips=%d",
			100*lres.FeederExceedFrac, lres.FeederTrips)
	}
	if lres.CBTrips != 0 {
		t.Fatalf("lease run tripped a rack breaker %d times", lres.CBTrips)
	}
	if nres.FeederExceedFrac <= lres.FeederExceedFrac {
		t.Fatalf("naive exceedance %.3f not above lease exceedance %.3f",
			nres.FeederExceedFrac, lres.FeederExceedFrac)
	}
}

// Satellite of the single-rack bit-identity guarantee: a rack whose
// controller crashes *mid-partition* and restores from a fresh checkpoint —
// link client state included — must reproduce the uninterrupted linked run
// bit-exactly.
func TestLinkedCrashRestoreMidPartitionBitIdentical(t *testing.T) {
	base := rowConfig()
	base.Scenario.DurationS = 700
	base.Scenario.BurstDurationS = 700
	base.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, 300, 250)}
	ref := linkedRow(t, base)

	crashed := base
	crashed.Scenario.Faults.Faults = append([]faults.Fault{
		// Rack-scoped controller crash at t=450, deep inside the partition,
		// with zero restart delay: the restore comes from the snapshot
		// taken one tick earlier. The fault rides the shared scenario plan,
		// so *every* rack's controller crashes — each needs its own store.
		{Kind: faults.ControllerCrash, OnsetS: 450, DurationS: 1, Severity: 0},
	}, base.Scenario.Faults.Faults...)
	crashed.RackOptions = func(_, _ int) sim.RunOptions {
		return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}
	}
	cres := linkedRow(t, crashed)

	for i := range ref.Racks {
		r, c := ref.Racks[i], cres.Racks[i]
		if len(r.Series.TotalW) != len(c.Series.TotalW) {
			t.Fatalf("rack %d series lengths differ", i)
		}
		for tk := range r.Series.TotalW {
			if r.Series.TotalW[tk] != c.Series.TotalW[tk] || r.Series.CBW[tk] != c.Series.CBW[tk] ||
				r.Series.SoC[tk] != c.Series.SoC[tk] || r.Series.FreqBatch[tk] != c.Series.FreqBatch[tk] {
				t.Fatalf("rack %d diverges at tick %d (t=%d s)", i, tk, tk)
			}
		}
	}
	for tk := range ref.AggregateW {
		if ref.AggregateW[tk] != cres.AggregateW[tk] {
			t.Fatalf("aggregate diverges at tick %d", tk)
		}
	}
	// The lease ladder's accounting survived the crash too, on every rack.
	// Accepted/Stale may differ by one: a grant delivered on the crash tick
	// is forgotten when the restore rewinds the client to the snapshot taken
	// a tick earlier — in-flight messages die with the process. Everything
	// the degraded-mode ladder rests on must match exactly.
	for i := range ref.Clients {
		r, c := ref.Clients[i], cres.Clients[i]
		if r.Expiries != c.Expiries || r.Resyncs != c.Resyncs || r.DegradedS != c.DegradedS ||
			(math.IsNaN(r.LastResyncS) != math.IsNaN(c.LastResyncS)) ||
			(!math.IsNaN(r.LastResyncS) && r.LastResyncS != c.LastResyncS) {
			t.Fatalf("rack %d ladder stats diverge after restore:\nref   %+v\ncrash %+v", i, r, c)
		}
		if d := r.Accepted - c.Accepted; d < 0 || d > 1 {
			t.Fatalf("rack %d accepted-grant count diverges by %d:\nref   %+v\ncrash %+v", i, d, r, c)
		}
	}
	for i := range cres.Racks {
		restarts := 0
		for _, e := range cres.Racks[i].Events {
			if e.Kind == "ctl-restart" {
				restarts++
			}
		}
		if restarts != 1 {
			t.Fatalf("expected exactly 1 controller restart on rack %d, saw %d", i, restarts)
		}
	}
}

// A coordinator crash is survivable without any rack degrading when the
// outage is short enough that a lease issued just before the crash outlives
// the recovery: worst case the last grant goes out one refresh before the
// onset, and after the restart the coordinator needs a heartbeat echo (one
// tick of transit) to recover its version counters before the first
// re-grant (one more tick) — so the no-degrade bound is
// TTL − Refresh − 2·dt = 12 − 4 − 2 = 6 s with the defaults.
func TestLinkedCoordinatorCrashRecovers(t *testing.T) {
	cfg := rowConfig()
	cfg.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.CoordinatorCrash, OnsetS: 200, DurationS: 4, Severity: 1},
	}
	res := linkedRow(t, cfg)
	// Outage (4 s) under the no-degrade bound: leases ride it out.
	if d := res.DegradedS(); d != 0 {
		t.Fatalf("racks degraded %g s during a short coordinator outage", d)
	}
	if res.CBTrips != 0 || res.FeederTrips != 0 || res.FeederExceedFrac > 0.01 {
		t.Fatalf("coordinator crash run unsafe: trips=%d feeder=%d exceed=%.2f%%",
			res.CBTrips, res.FeederTrips, 100*res.FeederExceedFrac)
	}
	// Post-restart grants must not be rejected wholesale as stale: the
	// version-recovery path keeps acceptance flowing.
	var accepted int
	for _, c := range res.Clients {
		accepted += c.Accepted
	}
	if accepted == 0 {
		t.Fatal("no grants accepted at all")
	}
	// A longer outage *does* degrade racks — and they all come back.
	long := rowConfig()
	long.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.CoordinatorCrash, OnsetS: 200, DurationS: 60, Severity: 1},
	}
	lres := linkedRow(t, long)
	if lres.DegradedS() == 0 {
		t.Fatal("no rack degraded during a 60 s coordinator outage (TTL is 12 s)")
	}
	if lres.Resyncs() < long.Rows[0].Racks {
		t.Fatalf("only %d resyncs after coordinator restart; want every rack back", lres.Resyncs())
	}
	if lres.CBTrips != 0 || lres.FeederTrips != 0 {
		t.Fatalf("long coordinator outage unsafe: trips=%d feeder=%d", lres.CBTrips, lres.FeederTrips)
	}
}

// A fail-safe controller restart (crash with no usable checkpoint) re-announces
// the burst anchored at the restart time instead of t=0 — but the coordinator's
// slot assignments live in the t=0 frame. The linked policy must translate the
// granted offset into the allocator's live anchor frame: without that, the
// restarted rack overloads shifted by (restart time mod cycle), lands on other
// racks' slots, and the feeder sees more than SlotCapacity concurrent
// overloads.
func TestLinkedFailSafeRestartKeepsSlotPhase(t *testing.T) {
	cfg := rowConfig()
	// Crash every controller at t=208 — deliberately not cycle-aligned — with
	// an immediate restart. Racks 1–3 restore from fresh snapshots (schedule
	// anchor preserved); rack 0 has no checkpoint store, so its restore takes
	// the fail-safe path and re-anchors its schedule at the restart time.
	cfg.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.ControllerCrash, OnsetS: 208, DurationS: 1, Severity: 0},
	}
	cfg.RackOptions = func(_, rack int) sim.RunOptions {
		if rack == 0 {
			return sim.RunOptions{}
		}
		return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}
	}

	res := linkedRow(t, cfg)
	// The fail-safe restore dropped rack 0's lease; it must have fallen back
	// and re-synced when the coordinator's next refresh grant landed.
	if res.Clients[0].Expiries == 0 || res.Clients[0].Resyncs == 0 {
		t.Fatalf("rack 0 never cycled degraded→coordinated after its fail-safe restart: %+v", res.Clients[0])
	}
	// And its post-restart overloads landed in its assigned slot: the feeder
	// never saw more than SlotCapacity concurrent overloads.
	if res.CBTrips != 0 || res.FeederTrips != 0 {
		t.Fatalf("fail-safe restart run tripped: rack=%d feeder=%d", res.CBTrips, res.FeederTrips)
	}
	if res.FeederExceedFrac > 0.01 {
		t.Fatalf("feeder exceeded its budget %.1f%% of ticks: the restarted rack overloads outside its assigned slot",
			100*res.FeederExceedFrac)
	}
}

// Linked racks are structurally tick-bound: the lock-step loop interleaves
// the coordinator between rack ticks through Runner.Step, and linkedPolicy
// applies an always-active external budget, so the quiescence digest can
// never certify a span. Handing the racks run options that the
// discrete-event core consumes (here its discard-mode event log) must
// therefore degenerate honestly — bit-identical results to the default
// run, zero spans, zero skipped ticks.
func TestLinkedEventEngineDegeneratesToTick(t *testing.T) {
	cfg := threeRackRow()
	base := linkedRow(t, cfg)

	ev := cfg
	ev.RackOptions = func(_, _ int) sim.RunOptions {
		return sim.RunOptions{DropEvents: true}
	}
	eres := linkedRow(t, ev)

	for i := range base.Racks {
		b, e := &base.Racks[i].Series, &eres.Racks[i].Series
		for tk := range b.TotalW {
			if math.Float64bits(b.TotalW[tk]) != math.Float64bits(e.TotalW[tk]) ||
				math.Float64bits(b.CBW[tk]) != math.Float64bits(e.CBW[tk]) ||
				math.Float64bits(b.SoC[tk]) != math.Float64bits(e.SoC[tk]) ||
				math.Float64bits(b.FreqBatch[tk]) != math.Float64bits(e.FreqBatch[tk]) ||
				math.Float64bits(b.PCbW[tk]) != math.Float64bits(e.PCbW[tk]) {
				t.Fatalf("rack %d diverges at tick %d under event-core run options", i, tk)
			}
		}
		if n := len(eres.Racks[i].Events); n != 0 {
			t.Fatalf("rack %d ignored its run options: %d events logged with DropEvents", i, n)
		}
		for _, res := range []*sim.Result{base.Racks[i], eres.Racks[i]} {
			if st := res.Engine; st.Spans != 0 || st.TicksSkipped != 0 {
				t.Fatalf("rack %d fast-forwarded inside a lock-step linked run: %+v", i, st)
			}
		}
		if !clientStatsEqual(base.Clients[i], eres.Clients[i]) {
			t.Fatalf("rack %d link stats diverge: %+v vs %+v", i, base.Clients[i], eres.Clients[i])
		}
	}
	for tk := range base.AggregateW {
		if math.Float64bits(base.AggregateW[tk]) != math.Float64bits(eres.AggregateW[tk]) {
			t.Fatalf("aggregate diverges at tick %d", tk)
		}
	}
	if base.Transport != eres.Transport || base.Coord != eres.Coord {
		t.Fatalf("link accounting diverges:\nbase %+v / %+v\nevent %+v / %+v",
			base.Transport, base.Coord, eres.Transport, eres.Coord)
	}
}

// obsPartitionConfig is the span-test scenario: rack 0 cut off long enough
// to expire its lease, degrade, and resync after the heal.
func obsPartitionConfig() Config {
	cfg := rowConfig()
	cfg.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, 10, 690)}
	return cfg
}

func runWithSpans(t *testing.T, cfg Config) *obs.Cluster {
	t.Helper()
	oc := obs.NewCluster(cfg.Rows[0].Racks, obs.DefaultDetectorConfig())
	cfg.Obs = []*obs.Cluster{oc}
	linkedRow(t, cfg)
	return oc
}

// TestLinkedSpanTraceDeterministic is the span plane's diffability
// guarantee: two identical seeded runs — including the parallel rack
// stepping — emit byte-identical merged span traces.
func TestLinkedSpanTraceDeterministic(t *testing.T) {
	render := func() []byte {
		oc := runWithSpans(t, obsPartitionConfig())
		var buf bytes.Buffer
		if err := telemetry.WriteSpans(&buf, oc.Spans()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("linked run emitted no spans")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("span traces differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestLinkedSpanCausality walks the partition run's trace and checks the
// causal chain the plane promises: every lease accept points at a
// coordinator grant/probe, every degraded span points at the accept of the
// lease that expired, and every degraded episode that healed was closed by
// a resync child.
func TestLinkedSpanCausality(t *testing.T) {
	oc := runWithSpans(t, obsPartitionConfig())
	spans := oc.Spans()
	byID := make(map[uint64]telemetry.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kinds := make(map[string]int)
	for _, s := range spans {
		kinds[s.Kind]++
		switch s.Kind {
		case "lease-accept":
			p, ok := byID[s.Parent]
			if !ok || (p.Kind != "lease-grant" && p.Kind != "lease-probe") {
				t.Fatalf("accept span %d parent %d is %q, want a coordinator grant/probe", s.ID, s.Parent, p.Kind)
			}
			if p.LeaseVersion != s.LeaseVersion {
				t.Fatalf("accept v%d linked to grant v%d", s.LeaseVersion, p.LeaseVersion)
			}
		case "degraded":
			p, ok := byID[s.Parent]
			if !ok || p.Kind != "lease-accept" {
				t.Fatalf("degraded span %d parent %d is %q, want the expired lease's accept", s.ID, s.Parent, p.Kind)
			}
			if s.Open() {
				t.Fatalf("degraded span %d still open after the partition healed", s.ID)
			}
		case "lease-resync":
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("resync span %d orphaned (parent %d)", s.ID, s.Parent)
			}
		case "control-period":
			// Coordinated periods anchor to the live accept; degraded-mode
			// periods run without a lease and are roots.
			if s.Parent != 0 {
				if p := byID[s.Parent]; p.Kind != "lease-accept" {
					t.Fatalf("control-period %d anchored to %q", s.ID, p.Kind)
				}
			}
		}
	}
	for _, want := range []string{"lease-grant", "lease-accept", "degraded", "lease-resync", "presumed-degraded", "lease-probe", "heartbeat", "control-period"} {
		if kinds[want] == 0 {
			t.Fatalf("partition trace has no %q spans (kinds: %v)", want, kinds)
		}
	}
	// The partition run must raise the rack-degraded and rack-silent
	// alerts, each anchored to a real span in the trace.
	var sawDegraded, sawSilent bool
	for _, a := range oc.Alerts() {
		switch a.Detector {
		case obs.DetectorRackDegraded:
			sawDegraded = true
		case obs.DetectorRackSilent:
			sawSilent = true
		}
		if a.SpanID != 0 {
			if _, ok := byID[a.SpanID]; !ok {
				t.Fatalf("alert %+v anchored to unknown span", a)
			}
		}
	}
	if !sawDegraded || !sawSilent {
		t.Fatalf("partition run missing alerts: degraded=%v silent=%v", sawDegraded, sawSilent)
	}
}

// TestRegisterLinkMetricsUnderPartition exercises the full link metric set
// against a sustained partition: every counter the exporter publishes must
// agree with the run's own accounting. The partitioned row is the second
// of two, so the per-run aggregation over rows is exercised too: counters
// sum, the backoff peak and lease age take the maximum.
func TestRegisterLinkMetricsUnderPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows = []RowConfig{{Racks: 4}, {Racks: 4, Faults: &faults.Plan{Faults: []faults.Fault{partitionAt(0, 10, 690)}}}}
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	run, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	get := func(name string) float64 {
		t.Helper()
		v, ok := snap.Value(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	var tr link.TransportStats
	var co link.CoordStats
	var expiries, resyncs int
	var degradedS float64
	for _, res := range run.Rows {
		tr.GrantsSent += res.Transport.GrantsSent
		tr.GrantsLost += res.Transport.GrantsLost + res.Transport.GrantsPartition
		co.Probes += res.Coord.Probes
		co.Repacks += res.Coord.Repacks
		co.Presumed += res.Coord.Presumed
		for _, c := range res.Clients {
			expiries += c.Expiries
		}
		resyncs += res.Resyncs()
		degradedS += res.DegradedS()
	}

	if got := get("link_grants_sent_total"); got != float64(tr.GrantsSent) {
		t.Fatalf("grants_sent %v, accounting says %d", got, tr.GrantsSent)
	}
	if got := get("link_grants_lost_total"); got != float64(tr.GrantsLost) || got == 0 {
		t.Fatalf("grants_lost %v, accounting says %d (a sustained partition must lose grants)", got, tr.GrantsLost)
	}
	if expiries == 0 {
		t.Fatal("sustained partition produced no lease expiry")
	}
	if got := get("link_expiries_total"); got != float64(expiries) {
		t.Fatalf("expiries_total %v, accounting says %d", got, expiries)
	}
	if got := get("link_resyncs_total"); got != float64(resyncs) || got == 0 {
		t.Fatalf("resyncs_total %v, accounting says %d", got, resyncs)
	}
	if got := get("link_probes_total"); got != float64(co.Probes) || got == 0 {
		t.Fatalf("probes_total %v, accounting says %d", got, co.Probes)
	}
	if got := get("link_repacks_total"); got != float64(co.Repacks) || got == 0 {
		t.Fatalf("repacks_total %v, accounting says %d", got, co.Repacks)
	}
	if got := get("link_presumed_degraded_total"); got != float64(co.Presumed) || got == 0 {
		t.Fatalf("presumed_degraded_total %v, accounting says %d", got, co.Presumed)
	}
	// A 690 s partition walks the re-grant backoff all the way to its cap;
	// the healthy row never backs off, so the maximum is the cap.
	if got := get("link_regrant_backoff_peak_seconds"); got != link.MaxBackoffS {
		t.Fatalf("backoff peak %v, want cap %v", got, link.MaxBackoffS)
	}
	if got := get("link_degraded_seconds"); got != degradedS || got == 0 {
		t.Fatalf("degraded_seconds %v, accounting says %v", got, degradedS)
	}
	age := get("link_lease_age_seconds")
	if math.IsNaN(age) || age < 0 || age > link.LeaseTTLS {
		t.Fatalf("end-of-run lease age %v outside [0, TTL=%v]", age, link.LeaseTTLS)
	}
}

// captureSink collects every coherent snapshot set the lock-step loop
// emits, per row (safe for the concurrent per-row use RunLinked makes of
// it).
type captureSink struct {
	mu   sync.Mutex
	sets map[int][][]*checkpoint.Snapshot
}

func (c *captureSink) sink(row int, snaps []*checkpoint.Snapshot) {
	c.mu.Lock()
	if c.sets == nil {
		c.sets = map[int][][]*checkpoint.Snapshot{}
	}
	c.sets[row] = append(c.sets[row], snaps)
	c.mu.Unlock()
}

// row returns the sets captured for one row, in capture order.
func (c *captureSink) row(r int) [][]*checkpoint.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]*checkpoint.Snapshot(nil), c.sets[r]...)
}

// TestLinkedCheckpointCaptureCoherent: the loop captures every rack at
// the same lock-step boundary, on the configured cadence, even while
// injected controller crashes would make per-rack checkpoint runtimes
// skip.
func TestLinkedCheckpointCaptureCoherent(t *testing.T) {
	cfg := rowConfig()
	cfg.Scenario.DurationS = 600
	cap := &captureSink{}
	cfg.CheckpointEveryS, cfg.OnRowCheckpoint = 120, cap.sink
	linkedRow(t, cfg)
	sets := cap.row(0)
	if len(sets) != 5 { // 120, 240, 360, 480, 600
		t.Fatalf("captured %d sets, want 5", len(sets))
	}
	for i, set := range sets {
		if len(set) != cfg.Rows[0].Racks {
			t.Fatalf("set %d has %d racks, want %d", i, len(set), cfg.Rows[0].Racks)
		}
		for j, sp := range set {
			if sp.Step != set[0].Step {
				t.Fatalf("set %d rack %d at step %d, rack 0 at %d: incoherent capture", i, j, sp.Step, set[0].Step)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("set %d rack %d: %v", i, j, err)
			}
		}
		if want := int64(120 * (i + 1)); set[0].Step != want {
			t.Errorf("set %d at step %d, want %d", i, set[0].Step, want)
		}
	}
}

// TestLinkedResumeFromCheckpoint: a run resumed from a mid-run snapshot
// set starts at the snapshot step, covers exactly the remaining window,
// stays safe, and is deterministic (two resumes from the same snapshots
// are bit-identical).
func TestLinkedResumeFromCheckpoint(t *testing.T) {
	cfg := rowConfig()
	cfg.Scenario.DurationS = 600
	cap := &captureSink{}
	cfg.CheckpointEveryS, cfg.OnRowCheckpoint = 120, cap.sink
	full := linkedRow(t, cfg)
	mid := cap.row(0)[1] // step 240

	rcfg := cfg
	rcfg.CheckpointEveryS, rcfg.OnRowCheckpoint = 0, nil
	rcfg.Resume = [][]*checkpoint.Snapshot{mid}
	res := linkedRow(t, rcfg)
	if res.StartStep != int(mid[0].Step) {
		t.Fatalf("StartStep = %d, want %d", res.StartStep, mid[0].Step)
	}
	steps := int(cfg.Scenario.DurationS / cfg.Scenario.DtS)
	if len(res.AggregateW) != steps-res.StartStep {
		t.Fatalf("aggregate covers %d steps, want %d", len(res.AggregateW), steps-res.StartStep)
	}
	if res.CBTrips != 0 || res.OutageS != 0 || res.FeederTrips != 0 {
		t.Fatalf("resumed run tripped: cb=%d outage=%g feeder=%d", res.CBTrips, res.OutageS, res.FeederTrips)
	}
	if full.StartStep != 0 {
		t.Fatalf("fresh run StartStep = %d, want 0", full.StartStep)
	}

	res2 := linkedRow(t, rcfg)
	for i := range res.AggregateW {
		if res.AggregateW[i] != res2.AggregateW[i] {
			t.Fatalf("resume not deterministic at step %d: %g vs %g", res.StartStep+i, res.AggregateW[i], res2.AggregateW[i])
		}
	}
	for i := range res.Racks {
		if res.Racks[i].EnergyTotalWh != res2.Racks[i].EnergyTotalWh {
			t.Fatalf("rack %d energy differs between identical resumes", i)
		}
	}
}

// TestLinkedResumeValidation: malformed resume sets and checkpoint
// configurations are rejected before any simulation work.
func TestLinkedResumeValidation(t *testing.T) {
	base := rowConfig()
	base.Scenario.DurationS = 300
	cap := &captureSink{}
	base.CheckpointEveryS, base.OnRowCheckpoint = 100, cap.sink
	linkedRow(t, base)
	good := cap.row(0)[0]

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"resume with wrong rack count", func(c *Config) { c.Resume = [][]*checkpoint.Snapshot{good[:len(good)-1]} }},
		{"resume with nil snapshot", func(c *Config) {
			bad := append([]*checkpoint.Snapshot(nil), good...)
			bad[1] = nil
			c.Resume = [][]*checkpoint.Snapshot{bad}
		}},
		{"resume with incoherent steps", func(c *Config) {
			bad := append([]*checkpoint.Snapshot(nil), good...)
			cp := *bad[0]
			cp.Step++
			bad[0] = &cp
			c.Resume = [][]*checkpoint.Snapshot{bad}
		}},
		{"checkpoint cadence under dt", func(c *Config) {
			c.CheckpointEveryS, c.OnRowCheckpoint = 0.1, cap.sink
		}},
	}
	for _, tc := range cases {
		cfg := rowConfig()
		cfg.Scenario.DurationS = 300
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := RunLinked(cfg); err == nil {
			t.Errorf("%s: RunLinked accepted it", tc.name)
		}
	}
}

// TestLinkedCancelDuringSetup: a stop that closes before or during the
// expensive runner-construction phase (per-tick series preallocation is
// seconds per rack at day-long horizons) aborts RunLinked promptly with
// sim.ErrCanceled instead of building every remaining rack first.
func TestLinkedCancelDuringSetup(t *testing.T) {
	cfg := rowConfig()
	stop := make(chan struct{})
	close(stop)
	cfg.Stop = stop
	if _, err := RunLinked(cfg); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("pre-closed stop: err = %v, want sim.ErrCanceled", err)
	}
}

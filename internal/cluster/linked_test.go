package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sprintcon/internal/alloc"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/link"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

func linkedConfig() Config {
	cfg := DefaultConfig()
	cfg.Link.Enabled = true
	return cfg
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
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nan feeder budget", func(c *Config) { c.FeederBudgetW = math.NaN() }},
		{"inf feeder budget", func(c *Config) { c.FeederBudgetW = math.Inf(1) }},
		{"negative feeder budget", func(c *Config) { c.FeederBudgetW = -1 }},
		{"zero feeder budget on linked run", func(c *Config) { c.FeederBudgetW = 0 }},
		{"nan link TTL", func(c *Config) {
			c.Link.Protocol = link.DefaultConfig()
			c.Link.Protocol.TTLS = math.NaN()
		}},
		{"negative link refresh", func(c *Config) {
			c.Link.Protocol = link.DefaultConfig()
			c.Link.Protocol.RefreshS = -4
		}},
		{"link schedule disagrees with allocator", func(c *Config) {
			c.Link.Protocol = link.DefaultConfig()
			c.Link.Protocol.OverloadS = 100
			c.Link.Protocol.CycleS = 300
		}},
		{"feeder budget below one overload bonus", func(c *Config) {
			// N·rated + less than one bonus ⇒ slot capacity K = 0.
			c.FeederBudgetW = 4*c.Scenario.Breaker.RatedPower + 100
		}},
		{"more racks than overload slots can hold", func(c *Config) {
			// K=2 per slot × 3 slots holds 6 racks, not 7.
			c.NumRacks = 7
		}},
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
			cfg := linkedConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("want validation error, got nil")
			}
			if _, err := RunLinked(cfg); err == nil {
				t.Fatal("RunLinked accepted an invalid config")
			}
		})
	}
	if err := linkedConfig().Validate(); err != nil {
		t.Fatalf("base linked config invalid: %v", err)
	}
	// The degenerate allocator override must be reported as its real cause —
	// the overload degree — not as a misleading derived-slot-capacity error.
	degenerate := linkedConfig()
	dcfg := alloc.DefaultConfig(degenerate.Scenario.Breaker.RatedPower, degenerate.Scenario.Breaker.TripBudget())
	dcfg.OverloadDegree = 1
	degenerate.SprintCon.AllocOverride = &dcfg
	if err := degenerate.Validate(); err == nil || !strings.Contains(err.Error(), "OverloadDegree") {
		t.Fatalf("want an OverloadDegree error for a degree-1 override, got %v", err)
	}
	// Link-scoped faults are valid in a linked cluster config but must be
	// rejected by the same scenario in single-rack form (the injector has no
	// link) and in an unlinked cluster.
	withFault := linkedConfig()
	withFault.Scenario.Faults.Faults = append(withFault.Scenario.Faults.Faults, partitionAt(0, 100, 50))
	if err := withFault.Validate(); err != nil {
		t.Fatalf("linked cluster rejected a link fault: %v", err)
	}
	unlinked := withFault
	unlinked.Link.Enabled = false
	if err := unlinked.Validate(); err == nil {
		t.Fatal("unlinked cluster accepted a link-scoped fault")
	}
}

func TestLinkedRequiresEnable(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := RunLinked(cfg); err == nil {
		t.Fatal("RunLinked ran without Link.Enabled")
	}
}

// A fault-free linked run must behave like the statically staggered cluster:
// coordinated sprinting, no degraded time, and a feeder that stays at or
// under its budget.
func TestLinkedHealthyStaysCoordinated(t *testing.T) {
	res, err := RunLinked(linkedConfig())
	if err != nil {
		t.Fatal(err)
	}
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

// Serial and parallel linked runs must be bit-identical, including under
// active link faults — all link state lives on the coordinating goroutine.
// The clean rows are the benchmark's cluster_link configs (quick and full
// mode).
func TestLinkedParallelMatchesSerial(t *testing.T) {
	faulted := linkedConfig()
	faulted.NumRacks = 3
	faulted.FeederBudgetW = 3*faulted.Scenario.Breaker.RatedPower + 0.25*faulted.Scenario.Breaker.RatedPower*2
	faulted.Scenario.DurationS = 400
	faulted.Scenario.BurstDurationS = 400
	faulted.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.LinkLoss, OnsetS: 50, DurationS: 200, Severity: 0.3},
		{Kind: faults.LinkDelay, OnsetS: 50, DurationS: 200, Severity: 3},
		partitionAt(0, 150, 120),
	}
	quick := linkedConfig()
	quick.NumRacks = 2
	quick.Scenario.DurationS = 300
	rated := quick.Scenario.Breaker.RatedPower
	quick.FeederBudgetW = 2*rated + 0.25*rated

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"faulted", faulted},
		{"bench_quick", quick},
		{"default", linkedConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			par, err := RunLinked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Serial = true
			ser, err := RunLinked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range par.Racks {
				p, s := par.Racks[i].Series, ser.Racks[i].Series
				if len(p.TotalW) != len(s.TotalW) {
					t.Fatalf("rack %d: %d vs %d recorded ticks", i, len(p.TotalW), len(s.TotalW))
				}
				for tk := range p.TotalW {
					if p.TotalW[tk] != s.TotalW[tk] || p.CBW[tk] != s.CBW[tk] || p.SoC[tk] != s.SoC[tk] ||
						p.FreqBatch[tk] != s.FreqBatch[tk] || p.FreqInter[tk] != s.FreqInter[tk] {
						t.Fatalf("rack %d diverges at tick %d", i, tk)
					}
				}
				if !clientStatsEqual(par.Clients[i], ser.Clients[i]) {
					t.Fatalf("rack %d link stats diverge: %+v vs %+v", i, par.Clients[i], ser.Clients[i])
				}
			}
			for tk := range par.AggregateW {
				if par.AggregateW[tk] != ser.AggregateW[tk] {
					t.Fatalf("aggregate diverges at tick %d", tk)
				}
			}
			if par.Transport != ser.Transport || par.Coord != ser.Coord {
				t.Fatalf("link accounting diverges:\npar %+v / %+v\nser %+v / %+v",
					par.Transport, par.Coord, ser.Transport, ser.Coord)
			}
		})
	}
}

// panicWriter fails every decision-record write with a panic.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("decision writer exploded") }

// A rack that panics inside its lock-step tick must fail the linked run
// with a *sim.PanicError naming the rack on the serial path exactly as on
// the parallel one, never crash the caller.
func TestLinkedRackPanicIsolatedSerialAndParallel(t *testing.T) {
	for _, serial := range []bool{false, true} {
		cfg := linkedConfig()
		cfg.Scenario.DurationS = 120
		cfg.Scenario.BurstDurationS = 120
		cfg.Serial = serial
		cfg.Link.RackOptions = func(rack int) sim.RunOptions {
			if rack == 1 {
				return sim.RunOptions{Decisions: telemetry.NewDecisionSink(panicWriter{})}
			}
			return sim.RunOptions{}
		}
		_, err := RunLinked(cfg)
		var pe *sim.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("serial=%v: err = %v, want a *sim.PanicError", serial, err)
		}
		if !strings.Contains(err.Error(), "cluster: rack 1") {
			t.Fatalf("serial=%v: error lacks rack attribution: %v", serial, err)
		}
	}
}

// A sustained partition must push the cut-off rack into the degraded
// fallback within one control period of lease expiry, and re-sync it within
// one control period of the heal.
func TestLinkedPartitionDegradesAndResyncs(t *testing.T) {
	cfg := linkedConfig()
	const onset, dur = 300.0, 300.0
	cfg.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, onset, dur)}

	res, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proto, _, err := cfg.linkSetup()
	if err != nil {
		t.Fatal(err)
	}
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
	minDegraded := dur - proto.TTLS - ctl
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
	for i := 1; i < cfg.NumRacks; i++ {
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
	base := linkedConfig()
	// Cut rack 0 off before anyone has overloaded: its slot is reassigned
	// to rack 2 within ~30 s (lease expiry + beat timeout), and since rack 2
	// has no overload history yet, the client-side recovery guard does not
	// delay it — it only sits out the in-flight first window. The second
	// slot-0 window (450–600 s) is where the schedules collide: racks 1 and
	// 2 own it, and the naive rack 0 still believes its stale grant covers
	// it — three concurrent overloads against a budget funding two.
	base.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, 10, 690)}

	naive := base
	naive.Link.NaiveTrustLastGrant = true
	nres, err := RunLinked(naive)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := RunLinked(base)
	if err != nil {
		t.Fatal(err)
	}

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

// Satellite of the PR-4 bit-identity guarantee: a rack whose controller
// crashes *mid-partition* and restores from a fresh checkpoint — link client
// state included — must reproduce the uninterrupted linked run bit-exactly.
func TestLinkedCrashRestoreMidPartitionBitIdentical(t *testing.T) {
	base := linkedConfig()
	base.Scenario.DurationS = 700
	base.Scenario.BurstDurationS = 700
	base.Scenario.Faults.Faults = []faults.Fault{partitionAt(0, 300, 250)}

	ref, err := RunLinked(base)
	if err != nil {
		t.Fatal(err)
	}

	crashed := base
	crashed.Scenario.Faults.Faults = append([]faults.Fault{
		// Rack-scoped controller crash at t=450, deep inside the partition,
		// with zero restart delay: the restore comes from the snapshot
		// taken one tick earlier. The fault rides the shared scenario plan,
		// so *every* rack's controller crashes — each needs its own store.
		{Kind: faults.ControllerCrash, OnsetS: 450, DurationS: 1, Severity: 0},
	}, base.Scenario.Faults.Faults...)
	crashed.Link.RackOptions = func(rack int) sim.RunOptions {
		return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}
	}
	cres, err := RunLinked(crashed)
	if err != nil {
		t.Fatal(err)
	}

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
	cfg := linkedConfig()
	cfg.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.CoordinatorCrash, OnsetS: 200, DurationS: 4, Severity: 1},
	}
	res, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	long := linkedConfig()
	long.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.CoordinatorCrash, OnsetS: 200, DurationS: 60, Severity: 1},
	}
	lres, err := RunLinked(long)
	if err != nil {
		t.Fatal(err)
	}
	if lres.DegradedS() == 0 {
		t.Fatal("no rack degraded during a 60 s coordinator outage (TTL is 12 s)")
	}
	if lres.Resyncs() < long.NumRacks {
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
	cfg := linkedConfig()
	// Crash every controller at t=208 — deliberately not cycle-aligned — with
	// an immediate restart. Racks 1–3 restore from fresh snapshots (schedule
	// anchor preserved); rack 0 has no checkpoint store, so its restore takes
	// the fail-safe path and re-anchors its schedule at the restart time.
	cfg.Scenario.Faults.Faults = []faults.Fault{
		{Kind: faults.ControllerCrash, OnsetS: 208, DurationS: 1, Severity: 0},
	}
	cfg.Link.RackOptions = func(rack int) sim.RunOptions {
		if rack == 0 {
			return sim.RunOptions{}
		}
		return sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}
	}

	res, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

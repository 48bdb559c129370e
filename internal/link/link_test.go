package link

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sprintcon/internal/faults"
)

func testCfg() Config {
	c := DefaultConfig()
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"zero overload", func(c *Config) { c.OverloadS = 0 }, true},
		{"inf cycle", func(c *Config) { c.CycleS = math.Inf(-1) }, true},
		{"cycle not past overload", func(c *Config) { c.CycleS = c.OverloadS }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCfg()
			tc.mutate(&c)
			err := c.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestProtocolConstants keeps the orderings the fixed protocol timing must
// satisfy: a lease outlives one refresh period, or healthy racks flap
// degraded between refreshes; a rack is declared unreachable only after at
// least one missed beat; and the backoff ladder climbs from its first step.
func TestProtocolConstants(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"ttl past refresh", LeaseTTLS > RefreshS && RefreshS > 0},
		{"timeout covers beat period", BeatTimeoutS >= BeatPeriodS && BeatPeriodS > 0},
		{"max backoff covers retry", MaxBackoffS >= RetryBackoffS && RetryBackoffS > 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.ok {
				t.Fatal("protocol timing violates the ordering")
			}
		})
	}
}

func TestCoordConfigValidate(t *testing.T) {
	base := CoordConfig{Link: testCfg(), NumRacks: 4, SlotCapacity: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	if n := base.NumSlots(); n != 3 {
		t.Fatalf("NumSlots = %d, want 3 for 450/150", n)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*CoordConfig)
	}{
		{"no racks", func(c *CoordConfig) { c.NumRacks = 0 }},
		{"zero capacity", func(c *CoordConfig) { c.SlotCapacity = 0 }},
		{"too many racks for slots", func(c *CoordConfig) { c.NumRacks = 7 }}, // ceil(7/2)=4 > 3 slots
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestClientVersionMonotone(t *testing.T) {
	cfg := testCfg()
	c := NewClient(cfg, 0, nil)
	l2 := Lease{RackID: 0, Version: 2, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true}
	if !c.Offer(0, l2) {
		t.Fatal("fresh lease rejected")
	}
	if c.Offer(0, l2) {
		t.Fatal("duplicate accepted")
	}
	l1 := l2
	l1.Version = 1
	if c.Offer(0, l1) {
		t.Fatal("stale (reordered) lease accepted")
	}
	l3 := l2
	l3.Version = 3
	if !c.Offer(0, l3) {
		t.Fatal("newer lease rejected")
	}
	wrong := l3
	wrong.Version = 9
	wrong.RackID = 1
	if c.Offer(0, wrong) {
		t.Fatal("lease for another rack accepted")
	}
	st := c.Stats()
	if st.Accepted != 2 || st.Stale != 2 {
		t.Fatalf("stats = %+v, want 2 accepted / 2 stale", st)
	}
}

func TestClientDegradedLadderAndResync(t *testing.T) {
	cfg := testCfg()
	c := NewClient(cfg, 0, &Lease{RackID: 0, Version: 1, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true, AllowUPS: true})
	dt := 1.0
	b := c.Advance(0, dt)
	if b.Degraded || !b.AllowOverload || !b.AllowUPS {
		t.Fatalf("boot budget degraded: %+v", b)
	}
	// Let the lease expire with no refresh.
	b = c.Advance(LeaseTTLS+1, dt)
	if !b.Degraded || b.AllowOverload || b.AllowUPS {
		t.Fatalf("expired lease still granted: %+v", b)
	}
	b = c.Advance(LeaseTTLS+2, dt)
	if !b.Degraded {
		t.Fatal("second degraded tick not degraded")
	}
	st := c.Stats()
	if st.Expiries != 1 || st.DegradedS != 2*dt {
		t.Fatalf("stats = %+v, want 1 expiry / %g degraded seconds", st, 2*dt)
	}
	// Heal: a fresh grant re-syncs on the next advance.
	heal := LeaseTTLS + 3
	if !c.Offer(heal, Lease{RackID: 0, Version: 2, IssuedAtS: heal, TTLS: LeaseTTLS, AllowOverload: true, AllowUPS: true}) {
		t.Fatal("re-sync grant rejected")
	}
	b = c.Advance(heal, dt)
	if b.Degraded {
		t.Fatal("still degraded after fresh grant")
	}
	st = c.Stats()
	if st.Resyncs != 1 || st.LastResyncS != heal {
		t.Fatalf("stats = %+v, want resync at t=%g", st, heal)
	}
}

func TestClientTrustLastGrantNeverDegrades(t *testing.T) {
	cfg := testCfg()
	cfg.TrustLastGrant = true
	c := NewClient(cfg, 0, &Lease{RackID: 0, Version: 1, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true})
	b := c.Advance(10*LeaseTTLS, 1)
	if b.Degraded || !b.AllowOverload {
		t.Fatalf("naive client degraded: %+v", b)
	}
	if c.Stats().Expiries != 0 {
		t.Fatal("naive client counted an expiry")
	}
}

func TestClientRePhaseEntryGuard(t *testing.T) {
	cfg := testCfg()
	c := NewClient(cfg, 0, &Lease{RackID: 0, Version: 1, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: cfg.CycleS - cfg.OverloadS})
	// At t=20 the boot slot (window [150,300)) is quiet; the new lease moves
	// the rack to slot 0, whose window [0,150) is mid-flight. Entering late
	// must be suppressed until that window ends at t=150.
	now := 20.0
	if !c.Offer(now, Lease{RackID: 0, Version: 2, IssuedAtS: now, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: 0}) {
		t.Fatal("re-phase grant rejected")
	}
	b := c.Advance(now, 1)
	if b.Degraded || b.AllowOverload {
		t.Fatalf("mid-window entry not suppressed: %+v", b)
	}
	// Keep the lease fresh and check permission returns when the window ends.
	if !c.Offer(145, Lease{RackID: 0, Version: 3, IssuedAtS: 145, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: 0}) {
		t.Fatal("refresh rejected")
	}
	if b := c.Advance(145, 1); b.AllowOverload {
		t.Fatal("suppression lifted early")
	}
	if b := c.Advance(cfg.OverloadS+1, 1); !b.AllowOverload {
		t.Fatal("suppression never lifted")
	}
}

// A re-pack to an earlier slot must not shorten the breaker's recovery: after
// holding an overload window, the client withholds overload permission until a
// full CycleS−OverloadS has elapsed since its last overload second, whatever
// slot the new lease assigns.
func TestClientRepackRecoveryGuard(t *testing.T) {
	cfg := testCfg()
	slot1 := cfg.CycleS - cfg.OverloadS // window [150, 300) on the default 450 s cycle
	c := NewClient(cfg, 0, &Lease{RackID: 0, Version: 1, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: slot1})
	v := uint64(2)
	refresh := func(now, offset float64) {
		t.Helper()
		if !c.Offer(now, Lease{RackID: 0, Version: v, IssuedAtS: now, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: offset}) {
			t.Fatalf("refresh at t=%g rejected", now)
		}
		v++
	}
	// March through the rack's own window; the client records the overload.
	for now := 150.0; now < 300; now += 10 {
		refresh(now, slot1)
		if b := c.Advance(now, 1); b.Degraded || !b.AllowOverload {
			t.Fatalf("own window t=%g: %+v", now, b)
		}
	}
	// Re-pack to slot 0 between windows (no window mid-flight for either
	// slot at t=310, so only the recovery guard applies). Slot 0's next
	// window [450, 600) starts 160 s after the rack's last overload second
	// at t=290 — less than the 300 s recovery the schedule guarantees.
	refresh(310, 0)
	refresh(460, 0)
	if b := c.Advance(460, 1); b.AllowOverload {
		t.Fatal("overload allowed 170 s into a 300 s recovery")
	}
	refresh(585, 0)
	if b := c.Advance(589, 1); b.AllowOverload {
		t.Fatal("overload allowed just before recovery completes")
	}
	if b := c.Advance(595, 1); !b.AllowOverload {
		t.Fatal("overload still suppressed after a full recovery period")
	}
}

func TestTransportBaseLatencyAndOrdering(t *testing.T) {
	tr := NewTransport(faults.Plan{}, 2, 1, 1)
	tr.Step(0)
	tr.SendGrant(0, Lease{RackID: 0, Version: 1})
	tr.SendGrant(0, Lease{RackID: 0, Version: 2})
	tr.SendGrant(0, Lease{RackID: 1, Version: 1})
	if got := tr.DeliverGrants(0, 0); len(got) != 0 {
		t.Fatalf("delivered same tick: %d msgs", len(got))
	}
	got := tr.DeliverGrants(0, 1)
	if len(got) != 2 || got[0].Version != 1 || got[1].Version != 2 {
		t.Fatalf("rack 0 deliveries = %+v, want versions 1,2 in order", got)
	}
	if got := tr.DeliverGrants(1, 1); len(got) != 1 || got[0].RackID != 1 {
		t.Fatalf("rack 1 deliveries wrong: %+v", got)
	}
	tr.SendBeat(1, Heartbeat{RackID: 0, SentAtS: 1})
	if hbs := tr.DeliverBeats(2); len(hbs) != 1 || hbs[0].RackID != 0 {
		t.Fatalf("beat delivery wrong: %+v", hbs)
	}
}

func TestTransportLossDelayDupDeterministic(t *testing.T) {
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkLoss, OnsetS: 0, DurationS: 1000, Severity: 0.5},
		{Kind: faults.LinkDelay, OnsetS: 0, DurationS: 1000, Severity: 5},
		{Kind: faults.LinkDup, OnsetS: 0, DurationS: 1000, Severity: 0.3},
	}}
	run := func() []uint64 {
		tr := NewTransport(plan, 1, 42, 1)
		tr.Step(0)
		for i := 0; i < 50; i++ {
			tr.SendGrant(float64(i), Lease{RackID: 0, Version: uint64(i + 1)})
		}
		var got []uint64
		for now := 0.0; now < 70; now++ {
			for _, l := range tr.DeliverGrants(0, now) {
				got = append(got, l.Version)
			}
		}
		return got
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("loss fault had no visible effect: %d of 50 delivered (plus dups)", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery order at %d: %d vs %d", i, a[i], b[i])
		}
	}
	tr := NewTransport(plan, 1, 42, 1)
	tr.Step(0)
	for i := 0; i < 50; i++ {
		tr.SendGrant(float64(i), Lease{RackID: 0, Version: uint64(i + 1)})
	}
	st := tr.Stats()
	if st.GrantsLost == 0 || st.GrantsDuped == 0 {
		t.Fatalf("expected losses and duplicates under active faults: %+v", st)
	}
	if st.GrantsSent != 50 {
		t.Fatalf("GrantsSent = %d, want 50", st.GrantsSent)
	}
}

func TestTransportPartitionBlocksBothDirections(t *testing.T) {
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkPartition, Server: 0, OnsetS: 10, DurationS: 100, Severity: 1},
	}}
	tr := NewTransport(plan, 2, 7, 1)
	tr.Step(20)
	tr.SendGrant(20, Lease{RackID: 0, Version: 1})
	tr.SendGrant(20, Lease{RackID: 1, Version: 1})
	tr.SendBeat(20, Heartbeat{RackID: 0})
	tr.SendBeat(20, Heartbeat{RackID: 1})
	if got := tr.DeliverGrants(0, 21); len(got) != 0 {
		t.Fatal("grant crossed an active partition")
	}
	if got := tr.DeliverGrants(1, 21); len(got) != 1 {
		t.Fatal("unpartitioned rack lost its grant")
	}
	hbs := tr.DeliverBeats(21)
	if len(hbs) != 1 || hbs[0].RackID != 1 {
		t.Fatalf("beats across partition = %+v, want only rack 1", hbs)
	}
	st := tr.Stats()
	if st.GrantsPartition == 0 || st.BeatsPartition == 0 {
		t.Fatalf("partition drops not counted: %+v", st)
	}
	// Partition at delivery time also drops in-flight messages.
	tr2 := NewTransport(plan, 2, 7, 1)
	tr2.Step(9)
	tr2.SendGrant(9, Lease{RackID: 0, Version: 1}) // lands at t=10, inside the partition
	tr2.Step(10)
	if got := tr2.DeliverGrants(0, 10); len(got) != 0 {
		t.Fatal("in-flight grant survived partition onset")
	}
}

func TestTransportCoordinatorDown(t *testing.T) {
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.CoordinatorCrash, OnsetS: 0, DurationS: 100, Severity: 1},
	}}
	tr := NewTransport(plan, 1, 3, 1)
	tr.Step(1)
	if !tr.CoordinatorDown() {
		t.Fatal("coordinator not down during crash fault")
	}
	tr.SendGrant(1, Lease{RackID: 0, Version: 1})
	tr.SendBeat(1, Heartbeat{RackID: 0})
	if got := tr.DeliverGrants(0, 2); len(got) != 0 {
		t.Fatal("down coordinator issued a grant")
	}
	if hbs := tr.DeliverBeats(2); len(hbs) != 0 {
		t.Fatal("down coordinator heard a beat")
	}
}

func TestTransportRejectsNonLinkFaults(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTransport accepted a server-scoped fault")
		}
	}()
	NewTransport(faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MonitorDropout, OnsetS: 0, DurationS: 10, Severity: 1},
	}}, 1, 1, 1)
}

func coordForTest(t *testing.T) (*Coordinator, CoordConfig) {
	t.Helper()
	cfg := CoordConfig{Link: testCfg(), NumRacks: 4, SlotCapacity: 2}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

func beatAll(c *Coordinator, now float64, racks ...int) {
	for _, r := range racks {
		c.Observe(Heartbeat{RackID: r, SentAtS: now, LeaseVersion: 1}, now)
	}
}

func TestCoordinatorBootstrapSlots(t *testing.T) {
	c, cfg := coordForTest(t)
	boot := c.Bootstrap()
	if len(boot) != 4 {
		t.Fatalf("bootstrap %d leases, want 4", len(boot))
	}
	for i, l := range boot {
		want := cfg.slotOffset(i / 2)
		if l.PhaseOffsetS != want || !l.AllowOverload || !l.AllowUPS || l.Version != 1 {
			t.Fatalf("bootstrap lease %d = %+v, want offset %g overload+UPS v1", i, l, want)
		}
	}
	// Slot offsets place windows back to back: slot 0 overloads at t∈[0,150),
	// slot 1 at [150,300).
	if !scheduleOverloading(cfg.Link, boot[0].PhaseOffsetS, 10) {
		t.Fatal("slot 0 not overloading at t=10")
	}
	if scheduleOverloading(cfg.Link, boot[2].PhaseOffsetS, 10) {
		t.Fatal("slot 1 overloading during slot 0's window")
	}
	if !scheduleOverloading(cfg.Link, boot[2].PhaseOffsetS, 160) {
		t.Fatal("slot 1 not overloading at t=160")
	}
}

func TestCoordinatorRefreshCadence(t *testing.T) {
	c, _ := coordForTest(t)
	if out := c.Step(1); len(out) != 0 {
		t.Fatalf("grants before first refresh due: %+v", out)
	}
	beatAll(c, 2, 0, 1, 2, 3)
	out := c.Step(RefreshS)
	if len(out) != 4 {
		t.Fatalf("%d grants at refresh, want 4", len(out))
	}
	for i, l := range out {
		if l.RackID != i || l.Version != 2 || !l.AllowOverload {
			t.Fatalf("refresh grant %d = %+v", i, l)
		}
	}
	if out := c.Step(RefreshS + 1); len(out) != 0 {
		t.Fatal("re-granted before next refresh")
	}
}

func TestCoordinatorPresumeDegradedAndRepack(t *testing.T) {
	c, cfg := coordForTest(t)
	// Rack 0 goes silent; the others keep beating.
	var lastGrants []Lease
	var now float64
	for now = BeatPeriodS; now <= 40; now += BeatPeriodS {
		beatAll(c, now, 1, 2, 3)
		lastGrants = append(lastGrants, c.Step(now)...)
	}
	if !c.racks[0].presumedDown {
		t.Fatal("silent rack not presumed degraded after timeout + sprint expiry")
	}
	if c.racks[1].presumedDown {
		t.Fatal("beating rack presumed degraded")
	}
	// After the repack, live racks 1,2,3 pack as {1,2}@slot0, {3}@slot1:
	// rack 2 moved, racks 1 and 3 kept their offsets.
	offs := map[int]float64{}
	for _, l := range lastGrants {
		if l.AllowOverload {
			offs[l.RackID] = l.PhaseOffsetS
		}
	}
	if offs[1] != cfg.slotOffset(0) || offs[2] != cfg.slotOffset(0) || offs[3] != cfg.slotOffset(1) {
		t.Fatalf("post-repack offsets = %v, want 1,2@%g 3@%g", offs, cfg.slotOffset(0), cfg.slotOffset(1))
	}
	if c.Stats().Repacks == 0 || c.Stats().Presumed != 1 {
		t.Fatalf("stats = %+v, want ≥1 repack and exactly 1 presumed", c.Stats())
	}
	// Once the beat timeout has passed, the silent rack gets only probes —
	// never overload permission. (Before the timeout the coordinator cannot
	// yet know the rack is gone, so early sprint grants are legitimate.)
	for _, l := range lastGrants {
		if l.RackID == 0 && l.AllowOverload && l.IssuedAtS > BeatTimeoutS {
			t.Fatalf("unreachable rack got a sprint grant: %+v", l)
		}
	}
	if c.Stats().Probes == 0 {
		t.Fatal("no re-sync probes sent to the unreachable rack")
	}
	// Heal: one beat from rack 0 and the next step restores a full grant
	// (within a refresh period) and repacks it into the free capacity.
	beatAll(c, now, 0, 1, 2, 3)
	healed := c.Step(now)
	var r0 *Lease
	for i := range healed {
		if healed[i].RackID == 0 {
			r0 = &healed[i]
		}
	}
	if r0 == nil || !r0.AllowOverload {
		t.Fatalf("healed rack not re-granted immediately: %+v", healed)
	}
	if c.racks[0].presumedDown {
		t.Fatal("healed rack still presumed degraded")
	}
}

func TestCoordinatorBackoff(t *testing.T) {
	c, cfg := coordForTest(t)
	probes := 0
	// All racks silent: drive well past timeout and count per-rack probes.
	for now := 0.0; now <= 60; now++ {
		for _, l := range c.Step(now) {
			if l.RackID == 0 && !l.AllowOverload {
				probes++
			}
		}
	}
	// With retry 1 s doubling to max 8 s over ~47 s of unreachability the
	// probe count must be far below one-per-second but nonzero.
	if probes == 0 || probes > 15 {
		t.Fatalf("probe count %d; exponential backoff not in effect", probes)
	}
	_ = cfg
}

func TestCoordinatorRestartRecoversVersions(t *testing.T) {
	c, _ := coordForTest(t)
	beatAll(c, 2, 0, 1, 2, 3)
	c.Step(RefreshS) // issues version 2 everywhere
	c.Restart(20)
	// Racks echo their lease versions in beats; the coordinator must resume
	// the monotone counter above them.
	c.Observe(Heartbeat{RackID: 0, SentAtS: 21, LeaseVersion: 2}, 21)
	out := c.Step(21)
	var r0 *Lease
	for i := range out {
		if out[i].RackID == 0 {
			r0 = &out[i]
		}
	}
	if r0 == nil {
		t.Fatal("no grant to beating rack after restart")
	}
	if r0.Version <= 2 {
		t.Fatalf("restarted coordinator issued stale version %d", r0.Version)
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	cfg := testCfg()
	c := NewClient(cfg, 3, &Lease{RackID: 3, Version: 5, IssuedAtS: 10, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: 150})
	c.Advance(11, 1)
	c.NoteTelemetry(2500, 0.8, true, 1)
	c.MaybeBeat(12)
	st := c.ExportState()
	c2 := NewClient(cfg, 3, nil)
	if err := c2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if c2.LeaseVersion() != 5 || c2.degraded != c.degraded {
		t.Fatalf("restore mismatch: v%d degraded=%v", c2.LeaseVersion(), c2.degraded)
	}
	b1, b2 := c.Advance(13, 1), c2.Advance(13, 1)
	if b1 != b2 {
		t.Fatalf("budgets diverge after restore: %+v vs %+v", b1, b2)
	}
	// Wrong rack and non-finite fields are rejected.
	c4 := NewClient(cfg, 4, nil)
	if err := c4.RestoreState(st); err == nil {
		t.Fatal("cross-rack restore accepted")
	}
	bad := st
	bad.SuppressUntilS = math.NaN()
	if err := c2.RestoreState(bad); err == nil {
		t.Fatal("NaN suppress-until accepted")
	}
}

// The first grant accepted after a fail-safe restart must re-run both
// overload-entry guards: FailSafe drops the lease, and guards gated on
// holding one would let a restarted rack join a window mid-flight or
// re-overload before a full recovery period has elapsed.
func TestClientFailSafeReappliesEntryGuards(t *testing.T) {
	cfg := testCfg()
	c := NewClient(cfg, 0, &Lease{RackID: 0, Version: 1, IssuedAtS: 0, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: 0})
	v := uint64(2)
	refresh := func(now, offset float64) {
		t.Helper()
		if !c.Offer(now, Lease{RackID: 0, Version: v, IssuedAtS: now, TTLS: LeaseTTLS, AllowOverload: true, PhaseOffsetS: offset}) {
			t.Fatalf("grant at t=%g rejected", now)
		}
		v++
	}
	// March through the rack's slot-0 window [0,150): overload history with
	// the last overload second at t=140.
	for now := 0.0; now < 150; now += 10 {
		refresh(now, 0)
		if b := c.Advance(now, 1); b.Degraded || !b.AllowOverload {
			t.Fatalf("own window t=%g: %+v", now, b)
		}
	}
	// The controller restarts fail-safe at t=200: the lease is dropped and
	// the client falls back.
	c.FailSafe(200)
	if b := c.Advance(200, 1); !b.Degraded {
		t.Fatal("client not degraded after FailSafe")
	}
	// Re-grant at t=210 into slot 1, whose window [150,300) is mid-flight:
	// the mid-window guard must keep the rack out of it, and the recovery
	// guard must hold overload until t=440 — CycleS−OverloadS after the
	// rack's last overload second.
	slot1 := cfg.CycleS - cfg.OverloadS
	refresh(210, slot1)
	if b := c.Advance(210, 1); b.Degraded || b.AllowOverload {
		t.Fatalf("mid-window entry after fail-safe not suppressed: %+v", b)
	}
	refresh(295, slot1)
	if b := c.Advance(295, 1); b.AllowOverload {
		t.Fatal("suppression lifted before the in-flight window ended")
	}
	// The window is over at t=320, but recovery from the pre-restart
	// overload still pends.
	refresh(320, slot1)
	if b := c.Advance(320, 1); b.AllowOverload {
		t.Fatal("overload allowed 180 s into a 300 s recovery")
	}
	refresh(435, slot1)
	if b := c.Advance(435, 1); b.AllowOverload {
		t.Fatal("overload allowed just before recovery completes")
	}
	refresh(445, slot1)
	if b := c.Advance(445, 1); !b.AllowOverload {
		t.Fatal("overload still suppressed after a full recovery period")
	}
}

// NumSlots must survive float-representation error on exact ratios: 0.3/0.1
// evaluates to 2.999… in binary floating point, and plain truncation would
// lose a slot and make Validate reject a configuration that fits.
func TestNumSlotsToleratesFloatRatio(t *testing.T) {
	cfg := testCfg()
	cfg.OverloadS, cfg.CycleS = 0.1, 0.3
	cc := CoordConfig{Link: cfg, NumRacks: 3, SlotCapacity: 1}
	if n := cc.NumSlots(); n != 3 {
		t.Fatalf("NumSlots = %d, want 3 (0.3/0.1 truncates to 2 without a tolerance)", n)
	}
	if err := cc.Validate(); err != nil {
		t.Fatalf("3 racks × 1 per slot fit 3 slots, but Validate rejected: %v", err)
	}
}

// TestDeliveryOrderMatchesReferenceSort: DeliverGrants and DeliverBeats
// hand over due messages in the order a reference sort.Slice on
// (deliverAt, seq) gives, on generated queues whose delivery times tie
// often and whose sequence numbers arrive shuffled, and keep every
// message not yet due queued in its original order.
func TestDeliveryOrderMatchesReferenceSort(t *testing.T) {
	const racks = 3
	rng := rand.New(rand.NewSource(7))
	reference := func(q []pendingMsg, now float64, keep func(pendingMsg) bool) (due []uint64, rest int) {
		var ms []pendingMsg
		for _, m := range q {
			switch {
			case m.deliverAtS > now+1e-9:
				rest++
			case keep(m):
				ms = append(ms, m)
			}
		}
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].deliverAtS != ms[j].deliverAtS {
				return ms[i].deliverAtS < ms[j].deliverAtS
			}
			return ms[i].seq < ms[j].seq
		})
		for _, m := range ms {
			due = append(due, m.seq)
		}
		return due, rest
	}
	for trial := 0; trial < 300; trial++ {
		tr := NewTransport(faults.Plan{}, racks, 1, 1)
		tr.Step(0)
		n := rng.Intn(48)
		perm := rng.Perm(n)
		var grants, beats []pendingMsg
		for i := 0; i < n; i++ {
			// Four distinct arrival times, one of them fractional as a
			// delay fault makes them, so most messages tie with others.
			at := float64(rng.Intn(4)) + 0.5*float64(rng.Intn(2))
			seq := uint64(perm[i] + 1)
			grants = append(grants, pendingMsg{deliverAtS: at, seq: seq, isGrant: true,
				grant: Lease{RackID: rng.Intn(racks), Version: seq}})
			beats = append(beats, pendingMsg{deliverAtS: at, seq: seq,
				beat: Heartbeat{RackID: rng.Intn(racks), LeaseVersion: seq}})
		}
		tr.grants = append([]pendingMsg(nil), grants...)
		tr.beats = append([]pendingMsg(nil), beats...)
		now := float64(rng.Intn(4))

		pending := len(grants)
		for rack := 0; rack < racks; rack++ {
			want, _ := reference(grants, now, func(m pendingMsg) bool { return m.grant.RackID == rack })
			got := tr.DeliverGrants(rack, now)
			if len(got) != len(want) {
				t.Fatalf("trial %d rack %d: %d grants delivered, want %d", trial, rack, len(got), len(want))
			}
			for i, l := range got {
				if l.Version != want[i] {
					t.Fatalf("trial %d rack %d: grant %d has seq %d, want %d", trial, rack, i, l.Version, want[i])
				}
			}
			pending -= len(got)
		}
		if len(tr.grants) != pending {
			t.Fatalf("trial %d: %d grants still queued, want %d", trial, len(tr.grants), pending)
		}
		want, rest := reference(beats, now, func(pendingMsg) bool { return true })
		got := tr.DeliverBeats(now)
		if len(got) != len(want) || len(tr.beats) != rest {
			t.Fatalf("trial %d: %d beats delivered and %d queued, want %d and %d", trial, len(got), len(tr.beats), len(want), rest)
		}
		for i, hb := range got {
			if hb.LeaseVersion != want[i] {
				t.Fatalf("trial %d: beat %d has seq %d, want %d", trial, i, hb.LeaseVersion, want[i])
			}
		}
		for i, j := 0, 0; i < len(beats); i++ {
			if beats[i].deliverAtS > now+1e-9 {
				if tr.beats[j].seq != beats[i].seq {
					t.Fatalf("trial %d: queued beat %d has seq %d, want %d", trial, j, tr.beats[j].seq, beats[i].seq)
				}
				j++
			}
		}
	}
}

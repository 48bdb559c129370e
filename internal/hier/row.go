package hier

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sprintcon/internal/breaker"
	"sprintcon/internal/checkpoint"
	"sprintcon/internal/core"
	"sprintcon/internal/link"
	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
	"sprintcon/internal/stats"
	"sprintcon/internal/telemetry"
)

// FeederTolerance is the relative slack applied before an aggregate-draw
// sample counts as a feeder exceedance. A correctly packed row sits
// *exactly* at its budget while SlotCapacity racks overload — the budget
// funds K overloads and the coordinator schedules K — so control-tracking
// noise alone reaches ~3% of the budget at the peaks. One *extra*
// uncoordinated overload adds a full bonus, rated·(degree−1), ≈5.6% of the
// four-rack default budget. The tolerance sits between the two: tracking
// noise does not count as an exceedance, a stolen overload slot always
// does. The building level applies the same slack, where the reasoning
// carries over unchanged.
const FeederTolerance = 0.035

// RowResult is one row's linked run: the per-rack results, the row
// feeder's safety record and the control link's accounting.
type RowResult struct {
	Racks []*sim.Result // per-rack results, index = rack id within the row

	// StartStep is the first executed step: 0 for a fresh run, the resume
	// snapshots' step for a row resumed through Config.Resume. AggregateW
	// and the feeder statistics cover [StartStep, steps) only.
	StartStep int

	// AggregateW is the row feeder draw per tick (sum of rack CB draws;
	// UPS discharge is rack-local and does not load the feeder).
	AggregateW []float64
	// PeakW and MeanW summarize the feeder draw.
	PeakW, MeanW float64
	// FeederExceedFrac is the fraction of ticks the aggregate draw exceeded
	// the row budget by more than FeederTolerance.
	FeederExceedFrac float64
	// FeederTrips counts trips of a shadow feeder breaker rated at the
	// budget (metric-only: power is never actually cut).
	FeederTrips int

	// Safety rollups summed across the row's racks: breaker trips (count),
	// interactive-service outage (s), and batch deadline misses (count).
	CBTrips        int
	OutageS        float64
	DeadlineMisses int

	Transport link.TransportStats
	Coord     link.CoordStats
	// Clients holds each rack's lease-lifecycle counters, index = rack id.
	Clients []link.ClientStats
	// Invariants holds each rack's safety-invariant breach counters.
	Invariants []core.InvariantReport

	// leaseAgeS is the oldest live lease at the end of the run (0 when no
	// rack holds one), kept for the link_lease_age_seconds gauge.
	leaseAgeS float64
}

// DegradedS sums degraded-mode seconds across the row's racks.
func (r *RowResult) DegradedS() float64 {
	var s float64
	for _, c := range r.Clients {
		s += c.DegradedS
	}
	return s
}

// Resyncs sums degraded→coordinated recoveries across the row's racks.
func (r *RowResult) Resyncs() int {
	var n int
	for _, c := range r.Clients {
		n += c.Resyncs
	}
	return n
}

// linkedPolicy adapts one rack's SprintCon to the control link: each tick it
// advances the rack's lease ladder, imposes the resulting budget on the
// controller (tighten-only), and caches the telemetry the next heartbeat
// carries. It forwards checkpointing with the link client's state embedded,
// so a crash-restore mid-partition resumes the ladder bit-identically.
type linkedPolicy struct {
	inner  *core.SprintCon
	client *link.Client
	ratedW float64
	cycleS float64
}

func (lp *linkedPolicy) Name() string { return lp.inner.Name() + "-linked" }

func (lp *linkedPolicy) Start(env *sim.Env, scn sim.Scenario) error {
	return lp.inner.Start(env, scn)
}

func (lp *linkedPolicy) Tick(env *sim.Env, snap sim.Snapshot) float64 {
	b := lp.client.Advance(snap.Now, snap.Dt)
	if !b.Degraded {
		// The degraded fallback freezes the schedule phase: overloads are
		// suspended anyway, and keeping the last offset means a re-sync to
		// an unchanged slot resumes seamlessly.
		//
		// Grant offsets are in the coordinator's absolute frame (schedule
		// anchored at t=0), but a fail-safe controller restart re-anchors
		// the allocator's square wave at the restart time. Fold the live
		// anchor into the offset so the rack's overload window lands in its
		// assigned slot whatever the anchor — otherwise a restarted rack
		// overloads shifted by (restart time mod cycle), on top of other
		// racks' slots, and the feeder exceeds the SlotCapacity bound.
		off := b.PhaseOffsetS
		if anchor := lp.inner.ScheduleAnchorS(); anchor != 0 {
			off = math.Mod(off+anchor, lp.cycleS)
			if off < 0 {
				off += lp.cycleS
			}
		}
		lp.inner.SetPhaseOffset(off)
	}
	lp.inner.SetExternalBudget(core.ExternalBudget{
		Active:        true,
		PCbCapW:       b.PCbCapW,
		AllowOverload: b.AllowOverload,
		AllowUPS:      b.AllowUPS,
	})
	req := lp.inner.Tick(env, snap)
	pcb, _ := lp.inner.Targets(snap.Now)
	lp.client.NoteTelemetry(snap.MeasuredTotalW, snap.UPSSoC,
		pcb > lp.ratedW*(1+1e-9), int(lp.inner.Mode()))
	return req
}

// Targets implements sim.TargetReporter.
func (lp *linkedPolicy) Targets(now float64) (float64, float64) {
	return lp.inner.Targets(now)
}

// ExportCheckpoint implements sim.Checkpointable.
func (lp *linkedPolicy) ExportCheckpoint(now float64) checkpoint.ControllerState {
	st := lp.inner.ExportCheckpoint(now)
	st.HasLink = true
	st.Link = lp.client.ExportState()
	return st
}

// RestoreCheckpoint implements sim.Checkpointable. A snapshot without link
// state (or a nil fail-safe restore) drops the lease: the rack re-enters
// degraded mode until the coordinator re-grants — the safe direction.
func (lp *linkedPolicy) RestoreCheckpoint(env *sim.Env, scn sim.Scenario, st *checkpoint.ControllerState, now float64) error {
	if err := lp.inner.RestoreCheckpoint(env, scn, st, now); err != nil {
		return err
	}
	if st != nil && st.HasLink {
		return lp.client.RestoreState(st.Link)
	}
	lp.client.FailSafe(now)
	return nil
}

// rowCoordConfig is row r's coordinator configuration: the default link
// timing with the allocator's overload schedule, the client flavor, and
// the slot capacity Allocate granted the row.
func (c Config) rowCoordConfig(a Allocation, row int) link.CoordConfig {
	acfg := c.allocConfig()
	proto := link.DefaultConfig()
	proto.OverloadS = acfg.OverloadS
	proto.CycleS = acfg.OverloadS + acfg.RecoveryS
	proto.TrustLastGrant = c.NaiveTrustLastGrant
	return link.CoordConfig{Link: proto, NumRacks: a.Rows[row].Racks, SlotCapacity: a.Rows[row].SlotCapacity}
}

// rowObs returns row r's observability plane, nil when it has none.
func (c Config) rowObs(row int) *obs.Cluster {
	if len(c.Obs) == 0 {
		return nil
	}
	return c.Obs[row]
}

// rowResume returns row r's resume set, nil when the row starts fresh.
func (c Config) rowResume(row int) []*checkpoint.Snapshot {
	if row < len(c.Resume) {
		return c.Resume[row]
	}
	return nil
}

// validateRow reports the errors row r's linked run would hit: rack count,
// scenario and fault plan, observability plane size, resume set shape and
// the coordinator's slot packing.
func (c Config) validateRow(a Allocation, row int) error {
	ra := a.Rows[row]
	if ra.Racks > MaxRacks {
		return fmt.Errorf("%d racks exceed MaxRacks %d", ra.Racks, MaxRacks)
	}
	// The fault plan may carry link-scoped faults, which the per-rack
	// validation rejects — split first and validate each half against its
	// consumer.
	scn := rowScenario(c, ra, row)
	rackPlan, linkPlan := scn.Faults.Split()
	scn.Faults = rackPlan
	if err := scn.Validate(); err != nil {
		return err
	}
	if err := linkPlan.ValidateForCluster(ra.Racks, scn.Rack.NumServers); err != nil {
		return err
	}
	if oc := c.rowObs(row); oc != nil && len(oc.Racks) < ra.Racks {
		return fmt.Errorf("observability plane has %d rack planes for %d racks", len(oc.Racks), ra.Racks)
	}
	if snaps := c.rowResume(row); snaps != nil {
		if len(snaps) != ra.Racks {
			return fmt.Errorf("resume set holds %d snapshots for %d racks", len(snaps), ra.Racks)
		}
		for i, sp := range snaps {
			if sp == nil {
				return fmt.Errorf("resume snapshot for rack %d is nil", i)
			}
			if sp.Step != snaps[0].Step {
				return fmt.Errorf("resume snapshots are incoherent: rack %d at step %d, rack 0 at step %d",
					i, sp.Step, snaps[0].Step)
			}
		}
	}
	return c.rowCoordConfig(a, row).Validate()
}

// rowLoop is row r's lock-step loop with the control link in it, split
// into phases so that one worker goroutine can interleave several rows
// round by round: newRowLoop builds the row, advance executes its next
// tick, and result assembles its RowResult. Every tick the transport's
// fault schedule advances, due grants reach the rack clients, all racks
// execute one physics tick, heartbeats travel back, and the coordinator
// issues fresh leases. The row draw is scored against a shadow breaker
// rated at the row budget. Each phase recovers its own panics, so a
// failing row stops only itself.
type rowLoop struct {
	c  Config
	id int
	ra RowAllocation
	dt float64

	coord    *link.Coordinator
	tr       *link.Transport
	runners  []*sim.Runner
	clients  []*link.Client
	inners   []*core.SprintCon
	stepErrs []error

	start, next, steps int // first, next and end step
	aggregate          []float64
	coordDown          bool

	// Coherent row snapshots: every rack exported at the same tick
	// boundary, handed to the sink as one set.
	checkpointing bool
	lastCkS       float64
}

// stopped reports whether the stop channel has closed (never for nil).
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// newRowLoop builds row r: its coordinator, lossy transport, and one
// lease client and runner per rack, positioned at the row's resume step.
// The configuration must already be validated.
func newRowLoop(c Config, a Allocation, row int) (l *rowLoop, err error) {
	defer sim.RecoverPanic(&err)
	ra := a.Rows[row]
	ccfg := c.rowCoordConfig(a, row)
	coord, err := link.NewCoordinator(ccfg)
	if err != nil {
		return nil, err
	}
	oc := c.rowObs(row)
	if oc != nil {
		// Attach before Bootstrap so the bootstrap grants are spanned and
		// their IDs reach the clients' initial leases.
		coord.Attach(oc.Coord)
	}
	_, linkPlan := rowScenario(c, ra, row).Faults.Split()

	dt := c.Scenario.DtS
	l = &rowLoop{
		c: c, id: row, ra: ra, dt: dt,
		coord:    coord,
		tr:       link.NewTransport(linkPlan, ra.Racks, c.Seed+int64(row), dt),
		runners:  make([]*sim.Runner, ra.Racks),
		clients:  make([]*link.Client, ra.Racks),
		inners:   make([]*core.SprintCon, ra.Racks),
		stepErrs: make([]error, ra.Racks),
	}
	boot := coord.Bootstrap()
	resume := c.rowResume(row)
	for i := range l.runners {
		// Runner construction is the expensive pre-run phase (per-tick
		// series preallocation, trace generation — seconds per rack at
		// day-long horizons), so honor cancellation between racks: a run
		// stopped during setup returns within one rack's build, not after
		// all of them.
		if stopped(c.Stop) {
			return nil, sim.ErrCanceled
		}
		// Rack i starts in its bootstrap slot; the link re-imposes the
		// offset every tick, so the initial phase only matters before the
		// first Tick.
		scn, inner := rackJob(c, a, row, i, boot[i].PhaseOffsetS)
		l.inners[i] = inner
		b := boot[i]
		l.clients[i] = link.NewClient(ccfg.Link, i, &b)
		lp := &linkedPolicy{inner: inner, client: l.clients[i], ratedW: scn.Breaker.RatedPower, cycleS: ccfg.Link.CycleS}
		var opts sim.RunOptions
		if c.RackOptions != nil {
			opts = c.RackOptions(row, i)
		}
		if oc != nil {
			l.clients[i].Attach(oc.Racks[i])
			opts.Obs = oc.Racks[i]
		}
		if resume != nil {
			opts.Resume = resume[i]
		}
		r, err := sim.NewRunner(scn, lp, opts)
		if err != nil {
			return nil, fmt.Errorf("rack %d: %w", i, err)
		}
		l.runners[i] = r
	}

	l.steps = l.runners[0].StepsTotal()
	l.start = l.runners[0].StepIndex()
	l.next = l.start
	if l.start > 0 {
		// A resumed run: the coordinator is a fresh process over restored
		// racks. Bring it up through its crash-restart path so its lease
		// bookkeeping matches reality (no beats seen yet, a full TTL of
		// conservatism for grants the racks may still hold).
		coord.Restart(float64(l.start) * dt)
	}
	l.aggregate = make([]float64, l.steps-l.start)
	l.checkpointing = c.CheckpointEveryS > 0 && c.OnRowCheckpoint != nil
	l.lastCkS = float64(l.start) * dt
	return l, nil
}

// capture hands the sink one coherent snapshot set of the row at the tick
// boundary it stands on, stamped as taken at tNext.
func (l *rowLoop) capture(tNext float64) error {
	snaps := make([]*checkpoint.Snapshot, len(l.runners))
	for i, r := range l.runners {
		sp, err := r.ExportSnapshot()
		if err != nil {
			return fmt.Errorf("rack %d checkpoint: %w", i, err)
		}
		snaps[i] = sp
	}
	l.c.OnRowCheckpoint(l.id, snaps)
	l.lastCkS = tNext
	return nil
}

// stepRack advances rack i one tick with panic isolation.
func (l *rowLoop) stepRack(i int) {
	defer sim.RecoverPanic(&l.stepErrs[i])
	l.stepErrs[i] = l.runners[i].Step()
}

// stepRacks executes one physics tick per rack over up to workers
// goroutines (1 steps them in order on the calling goroutine). Racks are
// independent given their delivered grants and only exchange state
// through the link on the calling goroutine, so the result is
// bit-identical for every count.
func (l *rowLoop) stepRacks(workers int) {
	n := len(l.runners)
	k := min(workers, n)
	if k <= 1 {
		for i := range l.runners {
			if l.stepRack(i); l.stepErrs[i] != nil {
				break
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			l.stepRack(i)
		}
	}
	wg.Add(k)
	for range k - 1 {
		go work()
	}
	work()
	wg.Wait()
}

// advance executes the row's next lock-step tick, its racks fanned out
// over rackWorkers goroutines, and reports whether the row has now run to
// its end. A closed Stop ends the row with
// sim.ErrCanceled instead, after capturing a final checkpoint at the
// boundary it stopped on.
func (l *rowLoop) advance(rackWorkers int) (done bool, err error) {
	defer sim.RecoverPanic(&err)
	if l.next >= l.steps {
		return true, nil
	}
	if stopped(l.c.Stop) {
		// A drain wants the freshest possible resume point: capture the
		// boundary the run stopped at, then report the cancellation.
		if l.checkpointing {
			if err := l.capture(math.NaN()); err != nil {
				return false, err
			}
		}
		return false, sim.ErrCanceled
	}
	step := l.next
	now := float64(step) * l.dt

	// 1. Network fault schedule, and the coordinator's crash/restart
	// edge: process restart (soft-state wipe) when the downtime ends.
	l.tr.Step(now)
	down := l.tr.CoordinatorDown()
	if l.coordDown && !down {
		l.coord.Restart(now)
	}
	l.coordDown = down

	// 2. Due grants reach the rack clients, in rack order.
	for i, cl := range l.clients {
		for _, g := range l.tr.DeliverGrants(i, now) {
			cl.Offer(now, g)
		}
	}

	// 3. One physics tick per rack.
	l.stepRacks(rackWorkers)
	for i, e := range l.stepErrs {
		if e != nil {
			return false, fmt.Errorf("rack %d: %w", i, e)
		}
	}

	// 4. Heartbeats out (a dead controller process sends none, and
	// neither does a dark rack — a rack in a power outage must look
	// unreachable so the coordinator's timeout path reclaims its slot),
	// then due beats into the coordinator, then fresh grants onto the
	// wire.
	for i, cl := range l.clients {
		if l.runners[i].ControllerDead() || l.runners[i].Dark() {
			continue
		}
		if hb, ok := cl.MaybeBeat(now); ok {
			l.tr.SendBeat(now, hb)
		}
	}
	for _, hb := range l.tr.DeliverBeats(now) {
		l.coord.Observe(hb, now)
	}
	if !down {
		for _, g := range l.coord.Step(now) {
			l.tr.SendGrant(now, g)
		}
	}

	// 5. Feeder accounting from the tick's conducted powers.
	var agg float64
	for _, r := range l.runners {
		agg += r.LastCBPowerW()
	}
	l.aggregate[step-l.start] = agg
	if l.c.OnRowTick != nil {
		l.c.OnRowTick(l.id, step, now, agg)
	}

	// 6. Cadenced coherent checkpoint at the tick boundary just
	// crossed (the exported step is step+1, the next to execute). The
	// run's end boundary is not captured: a finished run never resumes.
	if l.checkpointing && step+1 < l.steps {
		tNext := float64(step+1) * l.dt
		if tNext >= l.lastCkS+l.c.CheckpointEveryS-1e-9 {
			if err := l.capture(tNext); err != nil {
				return false, err
			}
		}
	}
	l.next++
	return l.next >= l.steps, nil
}

// result finishes every rack and assembles the row's result: per-rack
// results, safety rollups, link accounting and the feeder record.
func (l *rowLoop) result() (out *RowResult, err error) {
	defer sim.RecoverPanic(&err)
	out = &RowResult{
		Racks:      make([]*sim.Result, l.ra.Racks),
		StartStep:  l.start,
		AggregateW: l.aggregate,
		Transport:  l.tr.Stats(),
		Coord:      l.coord.Stats(),
		Clients:    make([]link.ClientStats, l.ra.Racks),
		Invariants: make([]core.InvariantReport, l.ra.Racks),
	}
	for i, r := range l.runners {
		res := r.Finish()
		out.Racks[i] = res
		out.CBTrips += res.CBTrips
		out.OutageS += res.OutageS
		out.DeadlineMisses += res.DeadlineMisses
		out.Clients[i] = l.clients[i].Stats()
		out.Invariants[i] = l.inners[i].InvariantViolations()
	}
	out.PeakW, out.MeanW, out.FeederExceedFrac, out.FeederTrips = scoreFeeder(l.ra.BudgetW, l.aggregate, l.dt)
	endS := float64(l.steps) * l.dt
	for _, cl := range l.clients {
		if age := cl.LeaseAgeS(endS); !math.IsNaN(age) && age > out.leaseAgeS {
			out.leaseAgeS = age
		}
	}
	return out, nil
}

// scoreFeeder scores an aggregate draw series sampled every dtS seconds
// against a feeder budget: its peak and mean, the fraction of samples
// above the budget by more than FeederTolerance, and the shadow breaker's
// trip count. Every feeder level — row, building, and the flat and sweep
// variants — is scored through it.
func scoreFeeder(budgetW float64, draw []float64, dtS float64) (peakW, meanW, exceedFrac float64, trips int) {
	return stats.Max(draw), stats.Mean(draw), stats.FracAbove(draw, budgetW*(1+FeederTolerance)),
		ShadowTrips(budgetW, draw, dtS)
}

// ShadowTrips runs a shadow breaker rated at budgetW over an aggregate draw
// series sampled every dtS seconds, and returns the trip count. It is
// metric-only — while "tripped" it cools and recloses rather than cutting
// power, so one sustained violation can score several trips but never
// alters the simulation. Every feeder level is scored with it.
func ShadowTrips(budgetW float64, aggregate []float64, dtS float64) int {
	bcfg := breaker.DefaultConfig()
	bcfg.RatedPower = budgetW
	fb, err := breaker.New(bcfg)
	if err != nil {
		return 0
	}
	for _, w := range aggregate {
		if fb.Tripped() {
			fb.Cool(dtS)
			if fb.CanReclose() {
				_ = fb.Reclose()
			}
			continue
		}
		fb.Step(w, dtS)
	}
	return fb.Trips()
}

// registerLinkMetrics publishes the run's link accounting on m, aggregated
// over rows: counters and degraded seconds are summed, the re-grant
// backoff peak and the oldest lease age take the maximum.
func registerLinkMetrics(m *telemetry.Registry, rows []*RowResult) {
	var degradedS, peakBackoffS, leaseAgeS float64
	for _, r := range rows {
		tr, co := r.Transport, r.Coord
		m.Counter("link_grants_sent_total", "budget leases put on the wire").Add(float64(tr.GrantsSent))
		m.Counter("link_grants_lost_total", "leases dropped by loss faults, partitions or coordinator downtime").
			Add(float64(tr.GrantsLost + tr.GrantsPartition))
		m.Counter("link_beats_sent_total", "heartbeats put on the wire").Add(float64(tr.BeatsSent))
		m.Counter("link_beats_lost_total", "heartbeats dropped by loss faults, partitions or coordinator downtime").
			Add(float64(tr.BeatsLost + tr.BeatsPartition))
		m.Counter("link_resyncs_total", "degraded→coordinated recoveries across racks").Add(float64(r.Resyncs()))
		m.Counter("link_probes_total", "re-sync probes issued to unreachable racks").Add(float64(co.Probes))
		m.Counter("link_repacks_total", "overload slot-assignment changes").Add(float64(co.Repacks))
		m.Counter("link_presumed_degraded_total", "coordinator transitions into presumed-degraded").Add(float64(co.Presumed))
		var expiries int
		for _, c := range r.Clients {
			expiries += c.Expiries
		}
		m.Counter("link_expiries_total", "lease expiries (degraded-mode entries) across racks").Add(float64(expiries))
		degradedS += r.DegradedS()
		peakBackoffS = math.Max(peakBackoffS, co.PeakBackoffS)
		leaseAgeS = math.Max(leaseAgeS, r.leaseAgeS)
	}
	m.Gauge("link_regrant_backoff_peak_seconds", "largest re-grant retry backoff reached").Set(peakBackoffS)
	m.Gauge("link_degraded_seconds", "total rack-seconds spent in the degraded standalone fallback").Set(degradedS)
	m.Gauge("link_lease_age_seconds", "oldest live lease age at end of run").Set(leaseAgeS)
}

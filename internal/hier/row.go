package hier

import (
	"fmt"
	"math"
	"runtime"
	"sync"

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

// runRow simulates row r in lock-step with the control link in the loop:
// every tick the transport's fault schedule advances, due grants reach the
// rack clients, all racks execute one physics tick (concurrently unless
// Config.Serial — results are bit-identical either way, since racks only
// exchange state through the link on the coordinating goroutine),
// heartbeats travel back, and the coordinator issues fresh leases. The row
// draw is scored against a shadow breaker rated at the row budget. The
// configuration must already be validated.
func runRow(c Config, a Allocation, row int) (*RowResult, error) {
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
	tr := link.NewTransport(linkPlan, ra.Racks, c.Seed+int64(row), dt)
	boot := coord.Bootstrap()
	resume := c.rowResume(row)

	runners := make([]*sim.Runner, ra.Racks)
	clients := make([]*link.Client, ra.Racks)
	inners := make([]*core.SprintCon, ra.Racks)
	for i := range runners {
		// Runner construction is the expensive pre-run phase (per-tick
		// series preallocation, trace generation — seconds per rack at
		// day-long horizons), so honor cancellation between racks: a run
		// stopped during setup returns within one rack's build, not after
		// all of them.
		if c.Stop != nil {
			select {
			case <-c.Stop:
				return nil, sim.ErrCanceled
			default:
			}
		}
		// Rack i starts in its bootstrap slot; the link re-imposes the
		// offset every tick, so the initial phase only matters before the
		// first Tick.
		scn, inner := rackJob(c, a, row, i, boot[i].PhaseOffsetS)
		inners[i] = inner
		b := boot[i]
		clients[i] = link.NewClient(ccfg.Link, i, &b)
		lp := &linkedPolicy{inner: inner, client: clients[i], ratedW: scn.Breaker.RatedPower, cycleS: ccfg.Link.CycleS}
		var opts sim.RunOptions
		if c.RackOptions != nil {
			opts = c.RackOptions(row, i)
		}
		if oc != nil {
			clients[i].Attach(oc.Racks[i])
			opts.Obs = oc.Racks[i]
		}
		if resume != nil {
			opts.Resume = resume[i]
		}
		r, err := sim.NewRunner(scn, lp, opts)
		if err != nil {
			return nil, fmt.Errorf("rack %d: %w", i, err)
		}
		runners[i] = r
	}

	steps := runners[0].StepsTotal()
	start := runners[0].StepIndex()
	if start > 0 {
		// A resumed run: the coordinator is a fresh process over restored
		// racks. Bring it up through its crash-restart path so its lease
		// bookkeeping matches reality (no beats seen yet, a full TTL of
		// conservatism for grants the racks may still hold).
		coord.Restart(float64(start) * dt)
	}
	aggregate := make([]float64, steps-start)
	workers := runtime.GOMAXPROCS(0)
	stepErrs := make([]error, ra.Racks)
	// stepRack advances rack i one tick with panic isolation on both the
	// serial and the parallel path.
	stepRack := func(i int) {
		defer sim.RecoverPanic(&stepErrs[i])
		stepErrs[i] = runners[i].Step()
	}
	coordDown := false
	canceled := false

	// Coherent row snapshots: every rack exported at the same tick
	// boundary, handed to the sink as one set.
	checkpointing := c.CheckpointEveryS > 0 && c.OnRowCheckpoint != nil
	lastCkS := float64(start) * dt
	captureRow := func(tNext float64) error {
		snaps := make([]*checkpoint.Snapshot, len(runners))
		for i, r := range runners {
			sp, err := r.ExportSnapshot()
			if err != nil {
				return fmt.Errorf("rack %d checkpoint: %w", i, err)
			}
			snaps[i] = sp
		}
		c.OnRowCheckpoint(row, snaps)
		lastCkS = tNext
		return nil
	}

	for step := start; step < steps; step++ {
		if c.Stop != nil {
			select {
			case <-c.Stop:
				canceled = true
			default:
			}
			if canceled {
				break
			}
		}
		now := float64(step) * dt

		// 1. Network fault schedule, and the coordinator's crash/restart
		// edge: process restart (soft-state wipe) when the downtime ends.
		tr.Step(now)
		down := tr.CoordinatorDown()
		if coordDown && !down {
			coord.Restart(now)
		}
		coordDown = down

		// 2. Due grants reach the rack clients, in rack order.
		for i, cl := range clients {
			for _, l := range tr.DeliverGrants(i, now) {
				cl.Offer(now, l)
			}
		}

		// 3. One physics tick per rack. Racks are independent given their
		// delivered grants, so the sweep parallelizes without affecting
		// the result.
		if c.Serial || workers <= 1 {
			for i := range runners {
				if stepRack(i); stepErrs[i] != nil {
					break
				}
			}
		} else {
			var wg sync.WaitGroup
			sem := make(chan struct{}, workers)
			for i := range runners {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					stepRack(i)
				}(i)
			}
			wg.Wait()
		}
		for i, e := range stepErrs {
			if e != nil {
				return nil, fmt.Errorf("rack %d: %w", i, e)
			}
		}

		// 4. Heartbeats out (a dead controller process sends none, and
		// neither does a dark rack — a rack in a power outage must look
		// unreachable so the coordinator's timeout path reclaims its slot),
		// then due beats into the coordinator, then fresh grants onto the
		// wire.
		for i, cl := range clients {
			if runners[i].ControllerDead() || runners[i].Dark() {
				continue
			}
			if hb, ok := cl.MaybeBeat(now); ok {
				tr.SendBeat(now, hb)
			}
		}
		for _, hb := range tr.DeliverBeats(now) {
			coord.Observe(hb, now)
		}
		if !down {
			for _, l := range coord.Step(now) {
				tr.SendGrant(now, l)
			}
		}

		// 5. Feeder accounting from the tick's conducted powers.
		var agg float64
		for _, r := range runners {
			agg += r.LastCBPowerW()
		}
		aggregate[step-start] = agg
		if c.OnRowTick != nil {
			c.OnRowTick(row, step, now, agg)
		}

		// 6. Cadenced coherent checkpoint at the tick boundary just
		// crossed (the exported step is step+1, the next to execute).
		if checkpointing {
			tNext := float64(step+1) * dt
			if tNext >= lastCkS+c.CheckpointEveryS-1e-9 {
				if err := captureRow(tNext); err != nil {
					return nil, err
				}
			}
		}
	}

	if canceled {
		// A drain wants the freshest possible resume point: capture the
		// boundary the run stopped at, then report the cancellation.
		if checkpointing {
			if err := captureRow(math.NaN()); err != nil {
				return nil, err
			}
		}
		return nil, sim.ErrCanceled
	}

	out := &RowResult{
		Racks:      make([]*sim.Result, ra.Racks),
		StartStep:  start,
		AggregateW: aggregate,
		Transport:  tr.Stats(),
		Coord:      coord.Stats(),
		Clients:    make([]link.ClientStats, ra.Racks),
		Invariants: make([]core.InvariantReport, ra.Racks),
	}
	for i, r := range runners {
		res := r.Finish()
		out.Racks[i] = res
		out.CBTrips += res.CBTrips
		out.OutageS += res.OutageS
		out.DeadlineMisses += res.DeadlineMisses
		out.Clients[i] = clients[i].Stats()
		out.Invariants[i] = inners[i].InvariantViolations()
	}
	out.PeakW, out.MeanW, out.FeederExceedFrac, out.FeederTrips = scoreFeeder(ra.BudgetW, aggregate, dt)
	endS := float64(steps) * dt
	for _, cl := range clients {
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

package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
)

// crashPlan returns a fault plan with controller crashes at the given
// onsets, each with the given restart delay.
func crashPlan(delayS float64, onsets ...float64) faults.Plan {
	var p faults.Plan
	for _, t := range onsets {
		p.Faults = append(p.Faults, faults.Fault{
			Kind:      faults.ControllerCrash,
			OnsetS:    t,
			DurationS: 1,
			Severity:  delayS,
		})
	}
	return p
}

// eventTrace reduces an event log to (T, Kind, Msg) strings, dropping the
// kinds that only exist because of the injected crash (the fault bracket
// and the crash/restart pair). Seq numbers are excluded on purpose: the
// crash run logs extra events, which shifts every later Seq.
func eventTrace(events []sim.Event, dropKinds ...string) []string {
	drop := map[string]bool{}
	for _, k := range dropKinds {
		drop[k] = true
	}
	var out []string
	for _, e := range events {
		if drop[e.Kind] {
			continue
		}
		out = append(out, fmt.Sprintf("%.3f|%s|%s", e.T, e.Kind, e.Msg))
	}
	return out
}

func sameSeries(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		// Bit-identical: NaN==NaN, and no tolerance.
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s[%d] (t=%.0fs): %v vs %v", name, i, float64(i), a[i], b[i])
		}
	}
}

// TestCrashRestoreBitIdentical is the tentpole acceptance test: a run whose
// controller crashes and restores from a fresh checkpoint must produce a
// bit-identical time series and event log to the uninterrupted run. Two
// crashes — one on a control-period boundary, one mid-period — with zero
// restart delay, so the restored snapshot is exactly one tick old (zero
// clock skew).
func TestCrashRestoreBitIdentical(t *testing.T) {
	base := sim.DefaultScenario()
	refRes, err := sim.Run(base, New(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}

	scn := base
	scn.Faults = crashPlan(0, 200, 541)
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewMemStore()
	crashRes, err := sim.RunWith(scn, New(DefaultConfig()), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}

	restarts := 0
	for _, e := range crashRes.Events {
		if e.Kind == "ctl-restart" {
			restarts++
			if !strings.Contains(e.Msg, "restored from checkpoint") {
				t.Errorf("restart was not from checkpoint: %v", e)
			}
		}
	}
	if restarts != 2 {
		t.Fatalf("expected 2 controller restarts, saw %d", restarts)
	}

	s := &refRes.Series
	c := &crashRes.Series
	sameSeries(t, "Time", s.Time, c.Time)
	sameSeries(t, "TotalW", s.TotalW, c.TotalW)
	sameSeries(t, "CBW", s.CBW, c.CBW)
	sameSeries(t, "UPSW", s.UPSW, c.UPSW)
	sameSeries(t, "PCbW", s.PCbW, c.PCbW)
	sameSeries(t, "PBatchW", s.PBatchW, c.PBatchW)
	sameSeries(t, "FreqInter", s.FreqInter, c.FreqInter)
	sameSeries(t, "FreqBatch", s.FreqBatch, c.FreqBatch)
	sameSeries(t, "SoC", s.SoC, c.SoC)

	if refRes.CBTrips != crashRes.CBTrips || refRes.OutageS != crashRes.OutageS ||
		refRes.UPSDoD != crashRes.UPSDoD ||
		refRes.AvgFreqBatch != crashRes.AvgFreqBatch ||
		refRes.AvgFreqInter != crashRes.AvgFreqInter ||
		refRes.BatchWorkDoneS != crashRes.BatchWorkDoneS ||
		refRes.DeadlineMisses != crashRes.DeadlineMisses {
		t.Errorf("headline metrics diverged:\nref   %+v\ncrash %+v", summary(refRes), summary(crashRes))
	}

	drop := []string{"fault-onset", "fault-clear", "ctl-crash", "ctl-restart"}
	refEv := eventTrace(refRes.Events)
	crashEv := eventTrace(crashRes.Events, drop...)
	if len(refEv) != len(crashEv) {
		t.Fatalf("event counts diverged: %d vs %d\nref: %v\ncrash: %v", len(refEv), len(crashEv), refEv, crashEv)
	}
	for i := range refEv {
		if refEv[i] != crashEv[i] {
			t.Errorf("event %d diverged:\nref   %s\ncrash %s", i, refEv[i], crashEv[i])
		}
	}
}

func summary(r *sim.Result) string {
	return fmt.Sprintf("trips=%d outage=%.0f dod=%.6f favg=%.6f/%.6f work=%.3f misses=%d",
		r.CBTrips, r.OutageS, r.UPSDoD, r.AvgFreqInter, r.AvgFreqBatch, r.BatchWorkDoneS, r.DeadlineMisses)
}

// nullStore persists nothing: Save succeeds, Latest always reports absence
// (a checkpoint volume that silently loses writes).
type nullStore struct{}

func (nullStore) Save(*checkpoint.Snapshot) (int, error) { return 0, nil }
func (nullStore) Latest() (*checkpoint.Snapshot, error)  { return nil, nil }

// corruptStore simulates an unreadable checkpoint: saves succeed but every
// read fails (what FileStore returns for a checksum mismatch).
type corruptStore struct{}

func (corruptStore) Save(*checkpoint.Snapshot) (int, error) { return 0, nil }
func (corruptStore) Latest() (*checkpoint.Snapshot, error) {
	return nil, fmt.Errorf("checksum mismatch (got deadbeef, want cafef00d)")
}

// TestCrashFailSafeMatrix drives controller crashes whose checkpoint is
// absent, lost, corrupt or stale — combined with an E18-style fault storm —
// and requires the fail-safe restart to keep the run trip- and outage-free,
// with the degradation visible in the event log.
func TestCrashFailSafeMatrix(t *testing.T) {
	storm := []faults.Fault{
		{Kind: faults.MonitorBias, OnsetS: 100, DurationS: 300, Severity: 0.3},
		{Kind: faults.ServerCrash, OnsetS: 250, DurationS: 200, Server: 2},
		{Kind: faults.ActuatorLag, OnsetS: 400, DurationS: 150, Severity: 0.4, Server: faults.AllServers},
	}
	cases := []struct {
		name string
		opts *sim.CheckpointOptions
	}{
		{"absent-no-store", nil},
		{"absent-lost-writes", &sim.CheckpointOptions{Store: nullStore{}}},
		{"corrupt", &sim.CheckpointOptions{Store: corruptStore{}}},
		{"stale", &sim.CheckpointOptions{Store: checkpoint.NewMemStore(), MaxAgeS: 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			scn := sim.DefaultScenario()
			scn.Faults = crashPlan(5, 300) // dead 5 s: stale case exceeds MaxAgeS=2
			scn.Faults.Faults = append(scn.Faults.Faults, storm...)
			if err := scn.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunWith(scn, New(DefaultConfig()), sim.RunOptions{Checkpoint: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			if res.CBTrips != 0 || res.OutageS != 0 {
				t.Errorf("fail-safe restart tripped the breaker: trips=%d outage=%.0fs", res.CBTrips, res.OutageS)
			}
			var sawFailSafe, sawHold bool
			for _, e := range res.Events {
				if e.Kind == "ctl-restart" && strings.Contains(e.Msg, "fail-safe") {
					sawFailSafe = true
				}
				if e.Kind == "failsafe" {
					sawHold = true
				}
			}
			if !sawFailSafe {
				t.Errorf("no fail-safe restart event; events: %v", eventTrace(res.Events))
			}
			if !sawHold {
				t.Errorf("no fail-safe budget-hold event; events: %v", eventTrace(res.Events))
			}
		})
	}
}

// pickStore retains the first snapshot at or after a target simulation time
// (test support: MemStore only keeps the latest).
type pickStore struct {
	at float64
	sp *checkpoint.Snapshot
}

func (p *pickStore) Save(s *checkpoint.Snapshot) (int, error) {
	if p.sp == nil && s.SimTimeS >= p.at {
		cp := *s
		p.sp = &cp
	}
	return 0, nil
}
func (p *pickStore) Latest() (*checkpoint.Snapshot, error) { return p.sp, nil }

// midRunSnapshot runs the default scenario with checkpointing and returns
// the snapshot captured at simulation time atS (mid-overload for small atS).
func midRunSnapshot(t *testing.T, atS float64) (*checkpoint.Snapshot, sim.Scenario) {
	t.Helper()
	scn := sim.DefaultScenario()
	store := &pickStore{at: atS}
	if _, err := sim.RunWith(scn, New(DefaultConfig()), sim.RunOptions{
		Checkpoint: &sim.CheckpointOptions{Store: store},
	}); err != nil {
		t.Fatal(err)
	}
	if store.sp == nil || !store.sp.HasController {
		t.Fatalf("no controller snapshot captured at t=%.0fs", atS)
	}
	return store.sp, scn
}

// TestRestoreClockSkew pins the restore-time clock-skew contract
// (DESIGN.md §11): a stale snapshot restores with the burst schedule still
// anchored to its absolute start — never rebased, which would re-grant
// overload budget the breaker already spent — and holds the fail-safe
// budget cap for a full breaker recovery time. A snapshot from the future
// is rejected outright.
func TestRestoreClockSkew(t *testing.T) {
	sp, scn := midRunSnapshot(t, 120)
	st := sp.Controller

	newEnv := func() *sim.Env {
		env, err := sim.BuildEnv(scn)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	t.Run("fresh", func(t *testing.T) {
		env := newEnv()
		s := New(DefaultConfig())
		if err := s.RestoreCheckpoint(env, scn, &st, st.CapturedAtS); err != nil {
			t.Fatal(err)
		}
		if s.failSafeUntil != st.FailSafeUntilS {
			t.Errorf("zero-skew restore entered fail-safe: until=%g, snapshot had %g", s.failSafeUntil, st.FailSafeUntilS)
		}
	})

	t.Run("stale", func(t *testing.T) {
		env := newEnv()
		s := New(DefaultConfig())
		now := st.CapturedAtS + 200
		if err := s.RestoreCheckpoint(env, scn, &st, now); err != nil {
			t.Fatal(err)
		}
		// The unobserved window forces the fail-safe hold...
		wantUntil := now + scn.Breaker.RecoveryTime
		if s.failSafeUntil < wantUntil-1e-9 {
			t.Errorf("stale restore fail-safe hold until %g, want >= %g", s.failSafeUntil, wantUntil)
		}
		if got := s.effectivePCb(now); got > scn.Breaker.RatedPower+1e-9 {
			t.Errorf("stale restore grants CB budget %g W above the %g W rating", got, scn.Breaker.RatedPower)
		}
		// ...but the burst schedule stays absolute: overload/recovery time
		// already spent is not re-counted from the restore instant.
		if got := s.allocator.ExportState().BurstStartS; got != st.Alloc.BurstStartS {
			t.Errorf("restore rebased the burst start to %g (snapshot had %g): recovery time would be double-counted", got, st.Alloc.BurstStartS)
		}
	})

	t.Run("future", func(t *testing.T) {
		env := newEnv()
		s := New(DefaultConfig())
		if err := s.RestoreCheckpoint(env, scn, &st, st.CapturedAtS-10); err == nil {
			t.Fatal("restore accepted a snapshot captured in the future")
		}
	})
}

// TestRestoreRejectsCorruptState mutates individual snapshot fields out of
// range and requires RestoreCheckpoint to reject each one — no corrupt
// snapshot may restore into an overload-enabled controller.
func TestRestoreRejectsCorruptState(t *testing.T) {
	sp, scn := midRunSnapshot(t, 120)
	base := sp.Controller
	now := base.CapturedAtS

	mutations := []struct {
		name string
		mut  func(st *checkpoint.ControllerState)
	}{
		{"capture-time-nan", func(st *checkpoint.ControllerState) { st.CapturedAtS = math.NaN() }},
		{"capture-time-negative", func(st *checkpoint.ControllerState) { st.CapturedAtS = -1 }},
		{"mode-unknown", func(st *checkpoint.ControllerState) { st.Mode = 7 }},
		{"failsafe-nan", func(st *checkpoint.ControllerState) { st.FailSafeUntilS = math.NaN() }},
		{"lastctl-future", func(st *checkpoint.ControllerState) { st.LastCtlS = now + 1000 }},
		{"pcb-negative", func(st *checkpoint.ControllerState) { st.CurPCbW = -5 }},
		{"pbatch-inf", func(st *checkpoint.ControllerState) { st.CurPBatchW = math.Inf(1) }},
		{"freqs-truncated", func(st *checkpoint.ControllerState) { st.CmdFreqsGHz = st.CmdFreqsGHz[:1] }},
		{"freq-out-of-range", func(st *checkpoint.ControllerState) {
			st.CmdFreqsGHz = append([]float64(nil), st.CmdFreqsGHz...)
			st.CmdFreqsGHz[0] = 100
		}},
		{"kmodel-negative", func(st *checkpoint.ControllerState) { st.KModel = -1 }},
		{"estimator-nan", func(st *checkpoint.ControllerState) { st.PrevPfbW = math.NaN() }},
		{"invariant-counter-negative", func(st *checkpoint.ControllerState) { st.InvCBMargin = -3 }},
		{"rls-flag-flipped", func(st *checkpoint.ControllerState) { st.HasRLS = !st.HasRLS }},
		{"harden-flag-flipped", func(st *checkpoint.ControllerState) { st.HasHarden = !st.HasHarden }},
	}
	if base.HasHarden {
		mutations = append(mutations,
			struct {
				name string
				mut  func(st *checkpoint.ControllerState)
			}{"harden-arrays-resized", func(st *checkpoint.ControllerState) {
				st.Harden.LastApplied = st.Harden.LastApplied[:1]
			}},
		)
	}
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			env, err := sim.BuildEnv(scn)
			if err != nil {
				t.Fatal(err)
			}
			st := base
			m.mut(&st)
			if err := New(DefaultConfig()).RestoreCheckpoint(env, scn, &st, now); err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
		})
	}
}

// TestCrashDuringDegradedModeRestores pins that a crash landing while the
// supervisor is already degraded restores the degraded mode rather than
// resetting to normal (which would re-enable overloads the supervisor had
// revoked). The sticky flags travel through the snapshot.
func TestCrashRestorePreservesSupervisorFlags(t *testing.T) {
	sp, scn := midRunSnapshot(t, 120)
	st := sp.Controller
	st.Mode = int(ModeNoOverload)
	st.EverNearTrip = true

	env, err := sim.BuildEnv(scn)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if err := s.RestoreCheckpoint(env, scn, &st, st.CapturedAtS); err != nil {
		t.Fatal(err)
	}
	if s.mode != ModeNoOverload || !s.everNearTrip {
		t.Errorf("restore dropped supervisor degradation: mode=%v everNearTrip=%v", s.mode, s.everNearTrip)
	}
	if got := s.effectivePCb(st.CapturedAtS); got > scn.Breaker.RatedPower+1e-9 {
		t.Errorf("degraded restore grants CB budget %g W above the %g W rating", got, scn.Breaker.RatedPower)
	}
}

// TestRestoredBreachIsNotLoggedAgain: each invariant breach kind is logged
// once per run, and the once is derived from the breach counter, which
// travels through the checkpoint. A controller restored with a CB-margin
// breach already counted must not log that breach a second time when it
// recurs; the uninterrupted run would not have.
func TestRestoredBreachIsNotLoggedAgain(t *testing.T) {
	sp, scn := midRunSnapshot(t, 120)
	st := sp.Controller
	st.InvCBMargin = 1

	env, err := sim.BuildEnv(scn)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if err := s.RestoreCheckpoint(env, scn, &st, st.CapturedAtS); err != nil {
		t.Fatal(err)
	}
	invariantEvents := func() int {
		n := 0
		for _, e := range env.Events.Events() {
			if e.Kind == "invariant" {
				n++
			}
		}
		return n
	}
	before := invariantEvents()
	s.checkTickInvariants(env, sim.Snapshot{CBTripped: true})
	if got := s.InvariantViolations().CBMargin; got != 2 {
		t.Fatalf("CB-margin breaches after the recurrence: %d, want 2", got)
	}
	if n := invariantEvents() - before; n != 0 {
		t.Fatalf("the restored controller logged %d new invariant events for a breach the run already reported", n)
	}
}

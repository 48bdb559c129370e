package alloc

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

const (
	rated  = 3200.0
	budget = 155 * (1.25*1.25 - 1) // breaker trip budget, ≈87.2 overload-seconds
	idleW  = 0.0
)

func mustNew(t *testing.T) *Allocator {
	t.Helper()
	a, err := New(DefaultConfig(rated, budget))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(rated, budget).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero rated", func(c *Config) { c.RatedPowerW = 0 }},
		{"degree 1", func(c *Config) { c.OverloadDegree = 1 }},
		{"zero overload", func(c *Config) { c.OverloadS = 0 }},
		{"zero budget", func(c *Config) { c.TripBudgetS = 0 }},
		{"mid < short", func(c *Config) { c.MidBurstS = 10 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(rated, budget)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestTuningConstants keeps the ranges the fixed allocator tuning must
// satisfy for the schedule and both adaptation modes to make sense.
func TestTuningConstants(t *testing.T) {
	for _, c := range []struct {
		cond string
		ok   bool
	}{
		{"0 ≤ headroomLowFrac < headroomHighFrac ≤ 1", 0 <= headroomLowFrac && headroomLowFrac < headroomHighFrac && headroomHighFrac <= 1},
		{"0 < reserveQuantile ≤ 1", 0 < reserveQuantile && reserveQuantile <= 1},
		{"0 ≤ safetyMargin < 1", 0 <= safetyMargin && safetyMargin < 1},
		{"deadlineMargin ≥ 0", deadlineMargin >= 0},
		{"PBatchPeriodS > 0 and pBatchStepW > 0", PBatchPeriodS > 0 && pBatchStepW > 0},
		{"shortBurstS ≥ 0", shortBurstS >= 0},
	} {
		if !c.ok {
			t.Errorf("allocator tuning violates %s", c.cond)
		}
	}
}

func TestPCbBeforeBurstIsRated(t *testing.T) {
	a := mustNew(t)
	if got := a.PCb(0); got != rated {
		t.Fatalf("PCb = %v, want rated before burst", got)
	}
	if a.Started() {
		t.Fatal("not started")
	}
}

func TestPCbShortBurstUncontrolled(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 30, idleW, 1000)
	if got := a.PCb(10); !math.IsInf(got, 1) {
		t.Fatalf("short burst PCb = %v, want +Inf (uncontrolled)", got)
	}
	if got := a.PBatchAt(10); !math.IsInf(got, 1) {
		t.Fatalf("short burst PBatchAt = %v, want +Inf", got)
	}
}

func TestPCbMidBurstConstantSafeOverload(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 480, idleW, 1000) // 8 minutes
	p0 := a.PCb(10)
	p1 := a.PCb(400)
	if p0 != p1 {
		t.Fatalf("mid burst PCb should be constant: %v vs %v", p0, p1)
	}
	deg := p0 / rated
	if deg <= 1 || deg >= 1.25 {
		t.Fatalf("degree %v should be between 1 and the periodic 1.25", deg)
	}
	// The chosen degree must respect the trip budget over the burst.
	if (deg*deg-1)*480 > budget {
		t.Fatalf("degree %v would trip within 480 s", deg)
	}
}

func TestPCbLongBurstPeriodicSchedule(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 1000)
	// Paper's example: rated 3.2 kW → 4.0 kW during overload, 3.2 kW
	// during recovery, repeating with 150/300 s phases.
	for _, tc := range []struct {
		at   float64
		want float64
	}{
		{0, 4000}, {149, 4000}, {151, 3200}, {449, 3200}, {451, 4000}, {599, 4000}, {600, 3200},
	} {
		if got := a.PCb(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("PCb(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if a.PCb(10) <= rated || a.PCb(200) > rated {
		t.Fatal("Overloading phase detection wrong")
	}
}

func TestPeriodicScheduleRespectsBreakerBudget(t *testing.T) {
	// One overload phase must consume less than the full trip budget:
	// 150 s · (1.25²−1) = 84.4 < 87.2.
	a := mustNew(t)
	cfg := a.Config()
	spent := cfg.OverloadS * (cfg.OverloadDegree*cfg.OverloadDegree - 1)
	if spent >= budget {
		t.Fatalf("overload phase spends %v of %v budget", spent, budget)
	}
	// And the recovery phase restores it all: 300 s ≥ full recovery.
	if cfg.RecoveryS < spent/(budget/300) {
		t.Fatalf("recovery %v s cannot restore %v overload-seconds", cfg.RecoveryS, spent)
	}
}

func TestSafeConstantDegreeMonotone(t *testing.T) {
	a := mustNew(t)
	prev := math.Inf(1)
	for _, d := range []float64{60, 120, 300, 600, 1200} {
		o := a.SafeConstantDegree(d)
		if o > prev {
			t.Fatalf("degree should not grow with duration at %v", d)
		}
		if o < 1 || o > 1.25 {
			t.Fatalf("degree %v out of range at duration %v", o, d)
		}
		prev = o
	}
	if got := a.SafeConstantDegree(0); got != 1.25 {
		t.Fatalf("zero duration degree = %v, want cap", got)
	}
}

// Property: a constant overload at SafeConstantDegree(d) held for d seconds
// never exceeds the trip budget.
func TestSafeConstantDegreeNeverTripsProperty(t *testing.T) {
	a, err := New(DefaultConfig(rated, budget))
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		d := 30 + math.Mod(math.Abs(raw), 3600)
		o := a.SafeConstantDegree(d)
		return (o*o-1)*d <= budget+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPBatchFollowsOverloadSchedule(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 1800)
	// During overload the batch budget carries the full +800 W bonus.
	ov := a.PBatchAt(10)   // overload phase
	rec := a.PBatchAt(200) // recovery phase
	if math.Abs((ov-rec)-a.OverloadBonusW()) > 1e-9 {
		t.Fatalf("overload bonus = %v, want %v", ov-rec, a.OverloadBonusW())
	}
	if math.Abs(rec-(rated-1800)) > 1e-9 {
		t.Fatalf("recovery budget = %v, want rated − reserve = %v", rec, rated-1800)
	}
}

func TestQuantileReserveAdapts(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 500)
	// Feed interactive power samples between 1900 and 2100 W.
	for s := 1; s <= 30; s++ {
		a.ObserveHeadroom(1900+200*float64(s%2), float64(s))
	}
	if !a.MaybeUpdatePBatch(31, 100, 0, 3000) {
		t.Fatal("update should fire after the period")
	}
	r := a.InteractiveReserveW()
	if r < 1900 || r > 2100 {
		t.Fatalf("reserve %v should land in the observed range", r)
	}
}

func TestDeadlineShiftCoversShortfall(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 500)
	for s := 1; s <= 30; s++ {
		a.ObserveHeadroom(2800, float64(s)) // heavy interactive load
	}
	need := 1500.0
	a.MaybeUpdatePBatch(31, need, 0, 5000)
	// Cycle-average affordance: rated + avg bonus − reserve − idle.
	afford := rated + a.OverloadFrac()*a.OverloadBonusW() - a.InteractiveReserveW()
	wantShift := need*(1+deadlineMargin) - afford
	if math.Abs(a.DeadlineShiftW()-wantShift) > 1e-6 {
		t.Fatalf("shift = %v, want %v", a.DeadlineShiftW(), wantShift)
	}
	// And a *negative* shift when the CB affords far more than the
	// deadline needs: batch work is slowed to finish just in time
	// instead of needlessly early (paper Section VII-D).
	a2 := mustNew(t)
	a2.StartBurst(0, 900, idleW, 500)
	for s := 1; s <= 30; s++ {
		a2.ObserveHeadroom(500, float64(s))
	}
	a2.MaybeUpdatePBatch(31, 100, 0, 5000)
	if a2.DeadlineShiftW() >= 0 {
		t.Fatalf("shift = %v, want negative when CB over-affords", a2.DeadlineShiftW())
	}
	// The delivered cycle-average equals the (margin-inflated) need.
	phi := a2.OverloadFrac()
	deliver := phi*a2.PBatchAt(451) + (1-phi)*a2.PBatchAt(200)
	want := 100 * (1 + deadlineMargin)
	if math.Abs(deliver-want) > 1 {
		t.Fatalf("delivered %v, want %v", deliver, want)
	}
}

func TestPBatchUpdatePeriodEnforced(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 500)
	// StartBurst arms an immediate first update.
	if !a.MaybeUpdatePBatch(0, 400, 0, 2000) {
		t.Fatal("first update should fire immediately after StartBurst")
	}
	if a.MaybeUpdatePBatch(10, 400, 0, 2000) {
		t.Fatal("update before the 30 s period should not fire")
	}
	if !a.MaybeUpdatePBatch(30, 400, 0, 2000) {
		t.Fatal("update at the period should fire")
	}
	if a.MaybeUpdatePBatch(45, 400, 0, 2000) {
		t.Fatal("second update too soon")
	}
}

func TestThresholdModeStepsReserve(t *testing.T) {
	cfg := DefaultConfig(rated, budget)
	cfg.Mode = AdaptThreshold
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.StartBurst(0, 900, idleW, 1000)
	// Saturated headroom (interactive above P_cb − P_batch always) →
	// the reserve grows by one step, shrinking P_batch.
	for s := 1; s <= 30; s++ {
		a.ObserveHeadroom(3500, float64(s))
	}
	a.MaybeUpdatePBatch(31, 100, 0, 5000)
	if got := a.InteractiveReserveW(); math.Abs(got-(1000+pBatchStepW)) > 1e-9 {
		t.Fatalf("reserve = %v, want one step above 1000", got)
	}
	// Idle headroom → the reserve shrinks by one step.
	for s := 32; s <= 62; s++ {
		a.ObserveHeadroom(10, float64(s))
	}
	a.MaybeUpdatePBatch(62, 100, 0, 5000)
	if got := a.InteractiveReserveW(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("reserve = %v, want back to 1000", got)
	}
}

func TestShiftCappedByBatchMax(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 3000)
	a.MaybeUpdatePBatch(31, 6000, 0, 2500) // absurd deadline demand
	if got := a.PBatchAt(31); got > 2500+1e-9 {
		t.Fatalf("recovery budget %v exceeds batch max 2500", got)
	}
}

func TestSetReserveAndEndBurst(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 900, idleW, 1000)
	a.SetReserve(-5)
	if a.InteractiveReserveW() != 0 {
		t.Fatal("SetReserve should clamp at 0")
	}
	a.EndBurst()
	if a.Started() {
		t.Fatal("EndBurst should stop the sprint")
	}
	if got := a.PCb(1000); got != rated {
		t.Fatalf("PCb after burst = %v, want rated", got)
	}
}

func TestObserveHeadroomIgnoredWhenUncontrolled(t *testing.T) {
	a := mustNew(t)
	a.StartBurst(0, 30, idleW, 1000) // short burst → PCb = +Inf
	a.ObserveHeadroom(5000, 10)
	if len(a.samples) != 0 {
		t.Fatal("uncontrolled phase should not record headroom samples")
	}
}

func TestPhaseOffsetShiftsSchedule(t *testing.T) {
	cfg := DefaultConfig(rated, budget)
	cfg.PhaseOffsetS = 225 // half a 450 s cycle
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.StartBurst(0, 900, idleW, 1000)
	// With a half-cycle offset, t=0 sits mid-recovery and the overload
	// phase begins at t=225.
	if a.PCb(0) > rated {
		t.Fatal("offset schedule should start in recovery")
	}
	if a.PCb(230) <= rated {
		t.Fatal("offset schedule should overload at t=230")
	}
	// The unshifted schedule is the complement.
	b := mustNew(t)
	b.StartBurst(0, 900, idleW, 1000)
	if b.PCb(0) <= rated || b.PCb(230) > rated {
		t.Fatal("unshifted schedule wrong")
	}
	bad := DefaultConfig(rated, budget)
	bad.PhaseOffsetS = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative offset should fail validation")
	}
}

func TestMidBurstAvgBonusConsistent(t *testing.T) {
	// A mid-length burst runs one constant overload, so PBatchAt is
	// constant across the burst (single overload phase).
	a := mustNew(t)
	a.StartBurst(0, 480, idleW, 1000)
	if a.PBatchAt(10) != a.PBatchAt(400) {
		t.Fatal("mid-burst batch budget should be constant")
	}
}

func TestQuantileHelper(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := quantile(xs, 0.8); got != 4 {
		t.Fatalf("quantile(0.8) = %v, want 4", got)
	}
	if got := quantile(xs, 1.0); got != 5 {
		t.Fatalf("quantile(1.0) = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile(nil) = %v, want 0", got)
	}
	// quantile sorts in place (callers pass a reused scratch copy so the
	// observation window keeps arrival order and the update allocates
	// nothing in steady state).
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("quantile must sort its scratch input in place")
	}
}

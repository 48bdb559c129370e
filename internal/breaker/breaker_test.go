package breaker

import (
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T) *Breaker {
	t.Helper()
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero rated power", func(c *Config) { c.RatedPower = 0 }},
		{"overload below 1", func(c *Config) { c.RefOverload = 0.9 }},
		{"zero trip time", func(c *Config) { c.RefTripTime = 0 }},
		{"zero recovery", func(c *Config) { c.RecoveryTime = 0 }},
		{"bad near-trip", func(c *Config) { c.NearTripFraction = 1.5 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTripTimeCurveShape(t *testing.T) {
	b := mustNew(t)
	// Fig. 2: nonlinear decreasing trip time with overload degree.
	prev := math.Inf(1)
	for _, o := range []float64{1.05, 1.1, 1.25, 1.5, 2, 3, 5} {
		tt := b.TripTime(o)
		if tt >= prev {
			t.Fatalf("trip time not strictly decreasing at o=%v: %v >= %v", o, tt, prev)
		}
		prev = tt
	}
	if !math.IsInf(b.TripTime(1.0), 1) || !math.IsInf(b.TripTime(0.5), 1) {
		t.Fatal("no trip at or below rated power")
	}
	// Calibration point: 1.25 overload sustainable just over 150 s.
	if tt := b.TripTime(1.25); tt < 150 || tt > 160 {
		t.Fatalf("trip time at 1.25 = %v, want ~155 s", tt)
	}
}

func TestSustainedOverloadTripsAtPredictedTime(t *testing.T) {
	b := mustNew(t)
	o := 1.4
	predicted := b.TripTime(o)
	p := o * b.RatedPower()
	dt := 0.1
	var elapsed float64
	for !b.Tripped() {
		b.Step(p, dt)
		elapsed += dt
		if elapsed > 2*predicted {
			t.Fatalf("no trip after %v s (predicted %v)", elapsed, predicted)
		}
	}
	if math.Abs(elapsed-predicted) > 2*dt+1e-9 {
		t.Fatalf("tripped at %v s, predicted %v s", elapsed, predicted)
	}
	if b.Trips() != 1 {
		t.Fatalf("trip count = %d", b.Trips())
	}
}

func TestPaperOverloadScheduleNeverTrips(t *testing.T) {
	// The paper's schedule: 150 s at overload degree 1.25, then 300 s at
	// rated power, repeated for 15 minutes. This must never trip.
	b := mustNew(t)
	dt := 1.0
	for cycle := 0; cycle < 2; cycle++ {
		for s := 0; s < 150; s++ {
			b.Step(1.25*b.RatedPower(), dt)
			if b.Tripped() {
				t.Fatalf("tripped during overload at cycle %d s %d", cycle, s)
			}
		}
		for s := 0; s < 300; s++ {
			b.Step(b.RatedPower(), dt)
		}
		if got := b.ThermalFraction(); got > 0.01 {
			t.Fatalf("cycle %d: not recovered, thermal fraction %v", cycle, got)
		}
	}
}

func TestSlightBudgetViolationTrips(t *testing.T) {
	// SGCT's behaviour in Fig. 5: exceeding the 1.25 budget slightly
	// (e.g. 1.30 sustained) trips within the 150 s overload window.
	b := mustNew(t)
	dt := 1.0
	for s := 0; s < 150; s++ {
		b.Step(1.30*b.RatedPower(), dt)
	}
	if !b.Tripped() {
		t.Fatal("sustained 1.30 overload should trip within 150 s")
	}
}

func TestTrippedBreakerConductsNothing(t *testing.T) {
	b := mustNew(t)
	for !b.Tripped() {
		b.Step(2*b.RatedPower(), 1)
	}
	if got := b.Step(1000, 1); got != 0 {
		t.Fatalf("tripped breaker conducted %v W", got)
	}
}

func TestRecloseRequiresCooling(t *testing.T) {
	b := mustNew(t)
	for !b.Tripped() {
		b.Step(2*b.RatedPower(), 1)
	}
	if err := b.Reclose(); err == nil {
		t.Fatal("reclose immediately after trip should fail")
	}
	// Cool for the full recovery time.
	var cooled float64
	for !b.CanReclose() {
		b.Cool(1)
		cooled++
		if cooled > 2*b.cfg.RecoveryTime {
			t.Fatal("breaker never cooled")
		}
	}
	if cooled > b.cfg.RecoveryTime+1 {
		t.Fatalf("cooling took %v s, config promises ≤ %v", cooled, b.cfg.RecoveryTime)
	}
	if err := b.Reclose(); err != nil {
		t.Fatalf("reclose after cooling: %v", err)
	}
	if b.Tripped() {
		t.Fatal("breaker still tripped after reclose")
	}
}

func TestNearTripFiresBeforeTrip(t *testing.T) {
	b := mustNew(t)
	sawNearTrip := false
	for !b.Tripped() {
		if b.NearTrip() {
			sawNearTrip = true
		}
		b.Step(1.5*b.RatedPower(), 0.5)
	}
	if !sawNearTrip {
		t.Fatal("NearTrip never reported before tripping")
	}
}

func TestRecoveryWhileLoadedAtRating(t *testing.T) {
	b := mustNew(t)
	b.Step(1.25*b.RatedPower(), 100) // accumulate
	f0 := b.ThermalFraction()
	b.Step(b.RatedPower(), 50) // rated load still recovers
	if b.ThermalFraction() >= f0 {
		t.Fatal("thermal state should decay at rated load")
	}
	b.Step(0.5*b.RatedPower(), 1000)
	if b.ThermalFraction() != 0 {
		t.Fatal("thermal state should decay to zero")
	}
}

func TestStepNegativeDtPanics(t *testing.T) {
	b := mustNew(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt should panic")
		}
	}()
	b.Step(100, -1)
}

// Property: for any overload degree o in (1, 6], integrating the thermal
// model at constant o trips within one step of the analytic TripTime.
func TestTripTimeConsistencyProperty(t *testing.T) {
	f := func(raw float64) bool {
		o := 1.01 + math.Mod(math.Abs(raw), 5.0)
		b, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		predicted := b.TripTime(o)
		dt := predicted / 1000
		var elapsed float64
		for !b.Tripped() {
			b.Step(o*b.RatedPower(), dt)
			elapsed += dt
			if elapsed > 2*predicted {
				return false
			}
		}
		return math.Abs(elapsed-predicted) <= 2*dt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"math"
	"testing"
	"testing/quick"

	"sprintcon/internal/cpu"
)

func mustNew(t *testing.T) *Server {
	t.Helper()
	s, err := New(0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func env() Environment { return Environment{AmbientC: 25} }

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero idle", func(p *Params) { p.IdleW = 0 }},
		{"max below idle", func(p *Params) { p.MaxW = 100 }},
		{"zero cores", func(p *Params) { p.Cores = 0 }},
		{"empty pstates", func(p *Params) { p.PStates = cpu.PStateTable{} }},
		{"bad alpha", func(p *Params) { p.Alpha = 1.5 }},
		{"negative fan", func(p *Params) { p.FanW = -1 }},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mutate(&p)
		if _, err := New(0, p); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// NewOn takes a CPU of exactly p.Cores cores, and the server's power reads
// the caller's table through it.
func TestNewOnReadsCallerTable(t *testing.T) {
	p := DefaultParams()
	p.FanW = 0
	freqs := make([]float64, p.Cores)
	utils := make([]float64, p.Cores)
	for i := range freqs {
		freqs[i] = p.PStates.Max()
	}
	var gen uint64
	short, _ := cpu.Window(p.PStates, freqs[:3], utils[:3], &gen)
	if _, err := NewOn(0, p, short); err == nil {
		t.Fatal("a CPU with too few cores should fail")
	}
	c, _ := cpu.Window(p.PStates, freqs, utils, &gen)
	s, err := NewOn(0, p, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range utils {
		utils[i] = 1
	}
	if got := s.Power(env()); math.Abs(got-p.MaxW) > 1e-9 {
		t.Fatalf("full-load power = %v, want %v", got, p.MaxW)
	}
}

func TestIdlePowerIs150W(t *testing.T) {
	s := mustNew(t)
	if got := s.Power(env()); math.Abs(got-150) > 1e-9 {
		t.Fatalf("idle power = %v, want 150", got)
	}
}

func TestFullLoadPeakPowerNear300W(t *testing.T) {
	s := mustNew(t)
	for i := 0; i < s.CPU().NumCores(); i++ {
		s.CPU().SetClass(i, cpu.Batch)
		s.CPU().SetFreq(i, 2.0)
		s.CPU().SetUtil(i, 1)
	}
	got := s.Power(env())
	// 300 W plus the small fan disturbance at full load.
	if got < 300 || got > 300+s.p.FanW+1 {
		t.Fatalf("full-load power = %v, want ≈300 (+fan)", got)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	s := mustNew(t)
	for i := 0; i < 8; i++ {
		s.CPU().SetClass(i, cpu.Batch)
		s.CPU().SetUtil(i, 0.9)
	}
	prev := 0.0
	for _, f := range s.p.PStates.Freqs() {
		for i := 0; i < 8; i++ {
			s.CPU().SetFreq(i, f)
		}
		p := s.Power(env())
		if p <= prev {
			t.Fatalf("power not increasing at f=%v: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestPowerSuperLinearInFrequency(t *testing.T) {
	// The measurement model must be super-linear so the controller's
	// linear design model has real error to reject.
	s := mustNew(t)
	for i := 0; i < 8; i++ {
		s.CPU().SetClass(i, cpu.Batch)
		s.CPU().SetUtil(i, 1)
	}
	powerAt := func(f float64) float64 {
		for i := 0; i < 8; i++ {
			s.CPU().SetFreq(i, f)
		}
		return s.Power(env())
	}
	lo, mid, hi := powerAt(0.4), powerAt(1.2), powerAt(2.0)
	// Convexity check: the chord midpoint exceeds the curve midpoint.
	if (lo+hi)/2 <= mid {
		t.Fatalf("power curve not convex: ends %v/%v mid %v", lo, hi, mid)
	}
}

func TestPowerScalesWithUtilization(t *testing.T) {
	s := mustNew(t)
	s.CPU().SetClass(0, cpu.Interactive)
	s.CPU().SetFreq(0, 2.0)
	s.CPU().SetUtil(0, 0.5)
	half := s.Power(env()) - 150
	s.CPU().SetUtil(0, 1.0)
	full := s.Power(env()) - 150
	if half <= 0 || full <= half {
		t.Fatalf("dynamic power should grow with utilization: %v vs %v", half, full)
	}
}

func TestFanDisturbanceRespondsToAmbient(t *testing.T) {
	s := mustNew(t)
	for i := 0; i < 8; i++ {
		s.CPU().SetClass(i, cpu.Batch)
		s.CPU().SetFreq(i, 2.0)
		s.CPU().SetUtil(i, 1)
	}
	cool := s.Power(Environment{AmbientC: 20})
	hot := s.Power(Environment{AmbientC: 35})
	if hot <= cool {
		t.Fatalf("hotter ambient should raise fan power: %v vs %v", hot, cool)
	}
}

func TestPowerOfClassPartitionsTotal(t *testing.T) {
	s := mustNew(t)
	for i := 0; i < 4; i++ {
		s.CPU().SetClass(i, cpu.Interactive)
		s.CPU().SetFreq(i, 2.0)
		s.CPU().SetUtil(i, 0.7)
	}
	for i := 4; i < 8; i++ {
		s.CPU().SetClass(i, cpu.Batch)
		s.CPU().SetFreq(i, 1.1)
		s.CPU().SetUtil(i, 0.95)
	}
	total := s.Power(env())
	sum := s.PowerOfClass(cpu.Interactive, env()) +
		s.PowerOfClass(cpu.Batch, env()) +
		s.PowerOfClass(cpu.Idle, env())
	if math.Abs(total-sum) > 1e-9 {
		t.Fatalf("class powers %v do not sum to total %v", sum, total)
	}
}

// Property: class partition holds for arbitrary core states.
func TestPowerOfClassPartitionProperty(t *testing.T) {
	f := func(freqs [8]float64, utils [8]float64, classes [8]uint8) bool {
		s, err := New(0, DefaultParams())
		if err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			s.CPU().SetClass(i, cpu.Class(classes[i]%3))
			s.CPU().SetFreq(i, 0.4+math.Mod(math.Abs(freqs[i]), 1.6))
			s.CPU().SetUtil(i, math.Mod(math.Abs(utils[i]), 1))
		}
		e := Environment{AmbientC: 28}
		total := s.Power(e)
		sum := s.PowerOfClass(cpu.Interactive, e) + s.PowerOfClass(cpu.Batch, e) + s.PowerOfClass(cpu.Idle, e)
		return math.Abs(total-sum) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDesignCoeffsApproximateMeasurement(t *testing.T) {
	p := DefaultParams()
	co := p.DesignCoeffs(0.9)
	if co.KWPerGHz <= 0 {
		t.Fatalf("K = %v, want positive", co.KWPerGHz)
	}
	// The linear model should track the true per-core power within a
	// bounded error over the frequency range at the reference utilization.
	for _, f := range p.PStates.Freqs() {
		truth := p.IdleW/float64(p.Cores) + p.coreDynamicW(f, 0.9)
		approx := co.KWPerGHz*f + co.CIdleShareW
		if math.Abs(truth-approx) > 0.25*p.perCoreMaxW() {
			t.Fatalf("linear model error too large at f=%v: truth %v approx %v", f, truth, approx)
		}
	}
	// Exact at the secant endpoints.
	for _, f := range []float64{p.PStates.Min(), p.PStates.Max()} {
		truth := p.IdleW/float64(p.Cores) + p.coreDynamicW(f, 0.9)
		approx := co.KWPerGHz*f + co.CIdleShareW
		if math.Abs(truth-approx) > 1e-9 {
			t.Fatalf("secant endpoint mismatch at f=%v", f)
		}
	}
}

func TestInteractiveCoeffsExactAtPeak(t *testing.T) {
	p := DefaultParams()
	co := p.InteractiveCoeffs()
	for _, u := range []float64{0, 0.3, 0.7, 1} {
		truth := p.IdleW/float64(p.Cores) + p.coreDynamicW(p.PStates.Max(), u)
		approx := co.KWPerGHz*u + co.CIdleShareW
		if math.Abs(truth-approx) > 1e-9 {
			t.Fatalf("Eq.(5) model wrong at u=%v: truth %v approx %v", u, truth, approx)
		}
	}
}

func TestStringer(t *testing.T) {
	s := mustNew(t)
	if s.String() == "" || s.ID() != 0 {
		t.Fatal("String/ID broken")
	}
}

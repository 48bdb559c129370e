package server

import (
	"math"
	"testing"
	"testing/quick"

	"sprintcon/internal/cpu"
)

// row is one server's cores as the rack's table holds them: a frequency,
// a utilization and a class per core.
type row struct {
	p  Params
	f  []float64
	u  []float64
	cl []cpu.Class
}

// newRow returns the cores of a server with parameters p, all idle at the
// lowest P-state.
func newRow(p Params) *row {
	r := &row{p: p, f: make([]float64, p.Cores), u: make([]float64, p.Cores), cl: make([]cpu.Class, p.Cores)}
	for i := range r.f {
		r.f[i] = p.PStates.Min()
	}
	return r
}

// set gives core i class cl, frequency f quantized to the P-state table
// and utilization u clamped to [0, 1], as the rack stores them.
func (r *row) set(i int, cl cpu.Class, f, u float64) {
	r.cl[i], r.f[i], r.u[i] = cl, r.p.PStates.Quantize(f), cpu.ClampUtil(u)
}

// power evaluates Power on the row's frequency factors, as the rack does
// from its term table.
func (r *row) power(e Environment) float64 {
	terms := make([]float64, len(r.f))
	for i, f := range r.f {
		terms[i] = r.p.FreqTerm(f)
	}
	return r.p.Power(terms, r.u, e)
}

func (r *row) powerOfClass(cl cpu.Class, e Environment) float64 {
	return r.p.PowerOfClass(r.f, r.u, r.cl, cl, e)
}

// pStates lists p's P-states in ascending order, read back through
// Quantize on a grid finer than the table's step.
func pStates(p Params) []float64 {
	var out []float64
	for i := 0; ; i++ {
		f := p.PStates.Min() + float64(i)*0.01
		if f > p.PStates.Max() {
			return out
		}
		if q := p.PStates.Quantize(f); len(out) == 0 || q != out[len(out)-1] {
			out = append(out, q)
		}
	}
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
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestIdlePowerIs150W(t *testing.T) {
	s := newRow(DefaultParams())
	if got := s.power(env()); math.Abs(got-150) > 1e-9 {
		t.Fatalf("idle power = %v, want 150", got)
	}
}

func TestFullLoadPeakPowerNear300W(t *testing.T) {
	s := newRow(DefaultParams())
	for i := range s.f {
		s.set(i, cpu.Batch, 2.0, 1)
	}
	got := s.power(env())
	// 300 W plus the small fan disturbance at full load.
	if got < 300 || got > 300+s.p.FanW+1 {
		t.Fatalf("full-load power = %v, want ≈300 (+fan)", got)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	s := newRow(DefaultParams())
	prev := 0.0
	for _, f := range pStates(s.p) {
		for i := 0; i < 8; i++ {
			s.set(i, cpu.Batch, f, 0.9)
		}
		p := s.power(env())
		if p <= prev {
			t.Fatalf("power not increasing at f=%v: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestPowerSuperLinearInFrequency(t *testing.T) {
	// The measurement model must be super-linear so the controller's
	// linear design model has real error to reject.
	s := newRow(DefaultParams())
	powerAt := func(f float64) float64 {
		for i := 0; i < 8; i++ {
			s.set(i, cpu.Batch, f, 1)
		}
		return s.power(env())
	}
	lo, mid, hi := powerAt(0.4), powerAt(1.2), powerAt(2.0)
	// Convexity check: the chord midpoint exceeds the curve midpoint.
	if (lo+hi)/2 <= mid {
		t.Fatalf("power curve not convex: ends %v/%v mid %v", lo, hi, mid)
	}
}

func TestPowerScalesWithUtilization(t *testing.T) {
	s := newRow(DefaultParams())
	s.set(0, cpu.Interactive, 2.0, 0.5)
	half := s.power(env()) - 150
	s.set(0, cpu.Interactive, 2.0, 1.0)
	full := s.power(env()) - 150
	if half <= 0 || full <= half {
		t.Fatalf("dynamic power should grow with utilization: %v vs %v", half, full)
	}
}

func TestFanDisturbanceRespondsToAmbient(t *testing.T) {
	s := newRow(DefaultParams())
	for i := 0; i < 8; i++ {
		s.set(i, cpu.Batch, 2.0, 1)
	}
	cool := s.power(Environment{AmbientC: 20})
	hot := s.power(Environment{AmbientC: 35})
	if hot <= cool {
		t.Fatalf("hotter ambient should raise fan power: %v vs %v", hot, cool)
	}
}

func TestPowerOfClassPartitionsTotal(t *testing.T) {
	s := newRow(DefaultParams())
	for i := 0; i < 4; i++ {
		s.set(i, cpu.Interactive, 2.0, 0.7)
	}
	for i := 4; i < 8; i++ {
		s.set(i, cpu.Batch, 1.1, 0.95)
	}
	total := s.power(env())
	sum := s.powerOfClass(cpu.Interactive, env()) +
		s.powerOfClass(cpu.Batch, env()) +
		s.powerOfClass(cpu.Idle, env())
	if math.Abs(total-sum) > 1e-9 {
		t.Fatalf("class powers %v do not sum to total %v", sum, total)
	}
}

// Property: class partition holds for arbitrary core states.
func TestPowerOfClassPartitionProperty(t *testing.T) {
	f := func(freqs [8]float64, utils [8]float64, classes [8]uint8) bool {
		s := newRow(DefaultParams())
		for i := 0; i < 8; i++ {
			s.set(i, cpu.Class(classes[i]%3), 0.4+math.Mod(math.Abs(freqs[i]), 1.6), math.Mod(math.Abs(utils[i]), 1))
		}
		e := Environment{AmbientC: 28}
		total := s.power(e)
		sum := s.powerOfClass(cpu.Interactive, e) + s.powerOfClass(cpu.Batch, e) + s.powerOfClass(cpu.Idle, e)
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
	for _, f := range pStates(p) {
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

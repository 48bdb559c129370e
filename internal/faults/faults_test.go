package faults

import (
	"math"
	"testing"
)

func TestFaultValidateTable(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"valid freeze", Fault{Kind: MonitorFreeze, OnsetS: 10, DurationS: 30}, true},
		{"valid bias", Fault{Kind: MonitorBias, OnsetS: 0, DurationS: 5, Severity: -0.4}, true},
		{"valid stuck all", Fault{Kind: ActuatorStuck, OnsetS: 1, DurationS: 2, Server: AllServers}, true},
		{"valid crash one", Fault{Kind: ServerCrash, OnsetS: 1, DurationS: 2, Server: 3}, true},
		{"unknown kind", Fault{Kind: "warp-core-breach", OnsetS: 1, DurationS: 2}, false},
		{"nan onset", Fault{Kind: MonitorFreeze, OnsetS: nan, DurationS: 2}, false},
		{"inf onset", Fault{Kind: MonitorFreeze, OnsetS: inf, DurationS: 2}, false},
		{"negative onset", Fault{Kind: MonitorFreeze, OnsetS: -1, DurationS: 2}, false},
		{"zero duration", Fault{Kind: MonitorFreeze, OnsetS: 1, DurationS: 0}, false},
		{"negative duration", Fault{Kind: MonitorFreeze, OnsetS: 1, DurationS: -3}, false},
		{"nan duration", Fault{Kind: MonitorFreeze, OnsetS: 1, DurationS: nan}, false},
		{"nan severity", Fault{Kind: MonitorBias, OnsetS: 1, DurationS: 2, Severity: nan}, false},
		{"inf severity", Fault{Kind: MonitorBias, OnsetS: 1, DurationS: 2, Severity: inf}, false},
		{"bias below -1", Fault{Kind: MonitorBias, OnsetS: 1, DurationS: 2, Severity: -1.5}, false},
		{"delay needs positive", Fault{Kind: MeasurementDelay, OnsetS: 1, DurationS: 2, Severity: 0}, false},
		{"lag outside (0,1)", Fault{Kind: ActuatorLag, OnsetS: 1, DurationS: 2, Severity: 1.5}, false},
		{"gauge outside [-1,1]", Fault{Kind: UPSGaugeBias, OnsetS: 1, DurationS: 2, Severity: 2}, false},
		{"server below -1", Fault{Kind: ServerCrash, OnsetS: 1, DurationS: 2, Server: -2}, false},
		{"server on non-per-server", Fault{Kind: MonitorFreeze, OnsetS: 1, DurationS: 2, Server: 3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestPlanValidateForRack(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: ServerCrash, OnsetS: 1, DurationS: 2, Server: 20}}}
	if err := p.ValidateForRack(16); err == nil {
		t.Fatal("server 20 in a 16-server rack should fail validation")
	}
	if err := p.ValidateForRack(32); err != nil {
		t.Fatalf("server 20 in a 32-server rack should pass: %v", err)
	}
}

func TestInjectorStepEdges(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: MonitorFreeze, OnsetS: 10, DurationS: 20},
		{Kind: ServerCrash, OnsetS: 15, DurationS: 5, Server: 2},
	}}
	in := NewInjector(p, 1)
	on, off := in.Step(0)
	if len(on) != 0 || len(off) != 0 {
		t.Fatalf("t=0: unexpected edges on=%v off=%v", on, off)
	}
	on, _ = in.Step(10)
	if len(on) != 1 || on[0].Kind != MonitorFreeze {
		t.Fatalf("t=10: want freeze onset, got %v", on)
	}
	on, _ = in.Step(15)
	if len(on) != 1 || on[0].Kind != ServerCrash {
		t.Fatalf("t=15: want crash onset, got %v", on)
	}
	_, off = in.Step(20)
	if len(off) != 1 || off[0].Kind != ServerCrash {
		t.Fatalf("t=20: want crash clear, got %v", off)
	}
	_, off = in.Step(30)
	if len(off) != 1 || off[0].Kind != MonitorFreeze {
		t.Fatalf("t=30: want freeze clear, got %v", off)
	}
}

func TestFreezeHoldsPreOnsetReading(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: MonitorFreeze, OnsetS: 2, DurationS: 3}}}
	in := NewInjector(p, 1)
	in.Step(0)
	if got := in.FilterMeasurement(100); got != 100 {
		t.Fatalf("t=0: got %g, want 100", got)
	}
	in.Step(1)
	if got := in.FilterMeasurement(110); got != 110 {
		t.Fatalf("t=1: got %g, want 110", got)
	}
	in.Step(2)
	if got := in.FilterMeasurement(120); got != 110 {
		t.Fatalf("t=2 frozen: got %g, want held 110", got)
	}
	in.Step(4)
	if got := in.FilterMeasurement(130); got != 110 {
		t.Fatalf("t=4 frozen: got %g, want held 110", got)
	}
	in.Step(5)
	if got := in.FilterMeasurement(140); got != 140 {
		t.Fatalf("t=5 cleared: got %g, want 140", got)
	}
}

func TestDropoutProducesNaN(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: MonitorDropout, OnsetS: 1, DurationS: 2}}}
	in := NewInjector(p, 1)
	in.Step(0)
	in.FilterMeasurement(100)
	in.Step(1)
	if got := in.FilterMeasurement(100); !math.IsNaN(got) {
		t.Fatalf("dropout: got %g, want NaN", got)
	}
	in.Step(3)
	if got := in.FilterMeasurement(105); got != 105 {
		t.Fatalf("after dropout: got %g, want 105", got)
	}
}

func TestBiasScalesReading(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: MonitorBias, OnsetS: 0, DurationS: 10, Severity: -0.4}}}
	in := NewInjector(p, 1)
	in.Step(0)
	if got := in.FilterMeasurement(1000); math.Abs(got-600) > 1e-9 {
		t.Fatalf("bias -0.4: got %g, want 600", got)
	}
}

func TestMeasurementDelay(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: MeasurementDelay, OnsetS: 3, DurationS: 100, Severity: 2}}}
	in := NewInjector(p, 1)
	for i := 0; i < 3; i++ {
		in.Step(float64(i))
		in.FilterMeasurement(float64(100 + i))
	}
	in.Step(3)
	// 2 s delay at dt=1 → 2 steps back: reading pushed at t=1 (101).
	if got := in.FilterMeasurement(103); got != 101 {
		t.Fatalf("delayed: got %g, want 101", got)
	}
	in.Step(4)
	if got := in.FilterMeasurement(104); got != 102 {
		t.Fatalf("delayed: got %g, want 102", got)
	}
}

func TestSoCGaugeBias(t *testing.T) {
	p := Plan{Faults: []Fault{{Kind: UPSGaugeBias, OnsetS: 0, DurationS: 10, Severity: 0.5}}}
	in := NewInjector(p, 1)
	in.Step(0)
	soc, dep := in.FilterSoC(0.1, false)
	if math.Abs(soc-0.6) > 1e-12 || dep {
		t.Fatalf("gauge +0.5: got soc=%g dep=%v, want 0.6 false", soc, dep)
	}
	soc, dep = in.FilterSoC(0.8, false)
	if soc != 1 || dep {
		t.Fatalf("gauge clamp: got soc=%g dep=%v, want 1 false", soc, dep)
	}
	// Negative bias can make a healthy battery look depleted.
	p2 := Plan{Faults: []Fault{{Kind: UPSGaugeBias, OnsetS: 0, DurationS: 10, Severity: -0.5}}}
	in2 := NewInjector(p2, 1)
	in2.Step(0)
	soc, dep = in2.FilterSoC(0.3, false)
	if soc != 0 || !dep {
		t.Fatalf("gauge -0.5 on soc 0.3: got soc=%g dep=%v, want 0 true", soc, dep)
	}
}

func TestServerStates(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: ServerCrash, OnsetS: 0, DurationS: 10, Server: 1},
		{Kind: ActuatorStuck, OnsetS: 0, DurationS: 10, Server: 2},
		{Kind: ActuatorLag, OnsetS: 0, DurationS: 10, Severity: 0.3, Server: AllServers},
	}}
	in := NewInjector(p, 1)
	in.Step(0)
	st := in.ServerStates(4)
	if !st[1].Offline || st[0].Offline {
		t.Fatalf("offline states wrong: %+v", st)
	}
	if !st[2].Stuck || st[3].Stuck {
		t.Fatalf("stuck states wrong: %+v", st)
	}
	for i := range st {
		if st[i].LagFrac != 0.3 {
			t.Fatalf("server %d lag = %g, want 0.3", i, st[i].LagFrac)
		}
	}
	if !in.UPSPathFailed() == true { // no path fault scheduled
		_ = st
	}
	if in.UPSPathFailed() {
		t.Fatal("UPSPathFailed should be false with no path fault")
	}
}

func TestParseSpecs(t *testing.T) {
	f, err := Parse("monitor-freeze:30:300")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Kind != MonitorFreeze || f.OnsetS != 30 || f.DurationS != 300 {
		t.Fatalf("parsed %+v", f)
	}
	f, err = Parse("actuator-stuck:60:400:0:3")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Kind != ActuatorStuck || f.Server != 3 {
		t.Fatalf("parsed %+v", f)
	}
	f, err = Parse("monitor-bias:10:20:-0.4")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Severity != -0.4 {
		t.Fatalf("parsed severity %g", f.Severity)
	}
	for _, bad := range []string{"", "monitor-freeze", "monitor-freeze:x:3", "nope:1:2", "monitor-freeze:1:2:3:4:5:6",
		// Trailing garbage in a numeric field fails the whole spec.
		"monitor-freeze:30s:300", "actuator-stuck:60:400:0:3.7", "actuator-stuck:60:400:0:3x"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: MonitorFreeze, OnsetS: 5, DurationS: 10},
		{Kind: MonitorBias, OnsetS: 12, DurationS: 6, Severity: 0.2},
		{Kind: MeasurementDelay, OnsetS: 3, DurationS: 30, Severity: 2},
	}}
	run := func() []float64 {
		in := NewInjector(p, 1)
		var out []float64
		for i := 0; i < 40; i++ {
			in.Step(float64(i))
			out = append(out, in.FilterMeasurement(1000+float64(i)*3))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("tick %d: %g != %g", i, a[i], b[i])
		}
	}
}

// onsetTime scans the injector for the tick at which the plan's single
// fault becomes active.
func onsetTime(t *testing.T, in *Injector, dt, horizon float64) float64 {
	t.Helper()
	for now := 0.0; now < horizon; now += dt {
		onsets, _ := in.Step(now)
		if len(onsets) > 0 {
			return now
		}
	}
	t.Fatal("fault never became active")
	return 0
}

func TestOnsetJitterDeterministic(t *testing.T) {
	plan := Plan{
		Faults:       []Fault{{Kind: MonitorDropout, OnsetS: 100, DurationS: 50}},
		OnsetJitterS: 200,
		Seed:         7,
	}
	a := onsetTime(t, NewInjector(plan, 1), 1, 1000)
	b := onsetTime(t, NewInjector(plan, 1), 1, 1000)
	if a != b {
		t.Fatalf("same seed must give the same onset: %v vs %v", a, b)
	}
	if a < 100 || a >= 300 {
		t.Fatalf("jittered onset %v outside [100, 300)", a)
	}
	// The caller's plan must not have been mutated.
	if plan.Faults[0].OnsetS != 100 {
		t.Fatalf("plan mutated: onset now %v", plan.Faults[0].OnsetS)
	}

	other := plan
	other.Seed = 8
	c := onsetTime(t, NewInjector(other, 1), 1, 1000)
	if c == a {
		t.Fatalf("different seeds should move the onset (both %v)", a)
	}
}

func TestZeroJitterKeepsExactOnsets(t *testing.T) {
	plan := Plan{
		Faults: []Fault{{Kind: MonitorDropout, OnsetS: 100, DurationS: 50}},
		Seed:   99, // ignored without jitter
	}
	if got := onsetTime(t, NewInjector(plan, 1), 1, 1000); got != 100 {
		t.Fatalf("zero jitter must keep the scheduled onset, got %v", got)
	}
}

func TestPlanValidateJitter(t *testing.T) {
	bad := Plan{OnsetJitterS: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative jitter should error")
	}
	bad.OnsetJitterS = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Fatal("infinite jitter should error")
	}
}

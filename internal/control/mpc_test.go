package control

import (
	"math"
	"testing"

	"sprintcon/internal/server"
)

func uniformK(n int, k float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = k
	}
	return out
}

func ones(n int) []float64 { return uniformK(n, 1) }

// linearPlant evaluates the design model p = Σ k·f + C.
func linearPlant(k []float64, freqs []float64, c float64) float64 {
	p := c
	for i := range k {
		p += k[i] * freqs[i]
	}
	return p
}

func TestMPCConfigValidate(t *testing.T) {
	good := DefaultMPCConfig(4, 9.6)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*MPCConfig)
	}{
		{"zero period", func(c *MPCConfig) { c.PeriodS = 0 }},
		{"zero tau", func(c *MPCConfig) { c.RefTimeConstS = 0 }},
		{"no cores", func(c *MPCConfig) { c.Cores = 0 }},
		{"negative k", func(c *MPCConfig) { c.KWPerGHz = -1 }},
		{"NaN k", func(c *MPCConfig) { c.KWPerGHz = math.NaN() }},
		{"bad bounds", func(c *MPCConfig) { c.FMinGHz = 2.0; c.FMaxGHz = 0.4 }},
	}
	for _, tc := range cases {
		cfg := DefaultMPCConfig(4, 9.6)
		tc.mutate(&cfg)
		if _, err := NewMPC(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestTuningConstants keeps the ranges the fixed MPC and measurement-guard
// tuning must satisfy for the cost function and the guard to be well posed.
func TestTuningConstants(t *testing.T) {
	for _, c := range []struct {
		cond string
		ok   bool
	}{
		{"0 < controlHorizon ≤ predictionHorizon", 0 < controlHorizon && controlHorizon <= predictionHorizon},
		{"qWeight > 0 and rScale > 0", qWeight > 0 && rScale > 0},
		{"freezeTicks > 0", freezeTicks > 0},
		{"guard slew band positive", guardSlewFrac > 0 && guardSlewFloorW > 0},
		{"0 ≤ guardDecayPerTick ≤ 1", 0 <= guardDecayPerTick && guardDecayPerTick <= 1},
		{"0 < guardConfidenceDecay < 1", 0 < guardConfidenceDecay && guardConfidenceDecay < 1},
		{"guardConfidenceRecover > 0", guardConfidenceRecover > 0},
	} {
		if !c.ok {
			t.Errorf("control tuning violates %s", c.cond)
		}
	}
}

func TestMPCStepDimensionCheck(t *testing.T) {
	m, _ := NewMPC(DefaultMPCConfig(4, 9.6))
	if _, err := m.Step(100, 200, []float64{1, 1}, ones(4)); err == nil {
		t.Fatal("wrong freqs length should fail")
	}
	if _, err := m.Step(100, 200, ones(4), []float64{1}); err == nil {
		t.Fatal("wrong weights length should fail")
	}
}

func TestMPCRespectsFrequencyBounds(t *testing.T) {
	m, _ := NewMPC(DefaultMPCConfig(8, 9.6))
	// Huge positive gap: wants max frequency everywhere.
	next, err := m.Step(0, 1e6, uniformK(8, 1.0), ones(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range next {
		if f < 0.4-1e-9 || f > 2.0+1e-9 {
			t.Fatalf("core %d frequency %v out of bounds", i, f)
		}
	}
	// Huge negative gap: wants min frequency everywhere.
	next, err = m.Step(1e6, 0, uniformK(8, 1.0), ones(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range next {
		if f < 0.4-1e-9 || f > 2.0+1e-9 {
			t.Fatalf("core %d frequency %v out of bounds", i, f)
		}
	}
}

// The stability property DESIGN.md promises: the closed loop on the design
// model settles well within the allocator's 30 s period.
func TestMPCSettlesWithinAllocatorPeriod(t *testing.T) {
	n := 16
	k := uniformK(n, 9.6)
	cfg := DefaultMPCConfig(n, 9.6)
	m, _ := NewMPC(cfg)
	c := 150.0
	freqs := uniformK(n, 0.4)
	target := c + 9.6*float64(n)*1.5 // reachable: mean f = 1.5

	steps := int(30 / cfg.PeriodS)
	var p float64
	for s := 0; s < steps; s++ {
		p = linearPlant(k, freqs, c)
		next, err := m.Step(p, target, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	p = linearPlant(k, freqs, c)
	if rel := math.Abs(p-target) / target; rel > 0.03 {
		t.Fatalf("after 30 s: power %v vs target %v (rel %.3f)", p, target, rel)
	}
}

func TestMPCNoOvershootWithLargeTau(t *testing.T) {
	// Section V-B: larger τ_r → smaller overshoot. Track the step
	// response and require it to approach from below.
	n := 8
	k := uniformK(n, 9.6)
	cfg := DefaultMPCConfig(n, 9.6)
	cfg.RefTimeConstS = 16
	m, _ := NewMPC(cfg)
	c := 100.0
	freqs := uniformK(n, 0.4)
	target := c + 9.6*float64(n)*1.2
	maxP := 0.0
	for s := 0; s < 40; s++ {
		p := linearPlant(k, freqs, c)
		maxP = math.Max(maxP, p)
		next, err := m.Step(p, target, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	if maxP > target*1.02 {
		t.Fatalf("overshoot: peak %v vs target %v", maxP, target)
	}
}

func TestMPCUnreachableTargetSaturatesAtPeak(t *testing.T) {
	n := 4
	k := uniformK(n, 9.6)
	m, _ := NewMPC(DefaultMPCConfig(n, 9.6))
	freqs := uniformK(n, 1.0)
	for s := 0; s < 30; s++ {
		p := linearPlant(k, freqs, 50)
		next, err := m.Step(p, 1e5, freqs, ones(n))
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	for i, f := range freqs {
		if math.Abs(f-2.0) > 1e-6 {
			t.Fatalf("core %d at %v, want saturated at 2.0", i, f)
		}
	}
}

func TestMPCUrgentCoresGetMoreFrequency(t *testing.T) {
	// Section V-B: the workload with less progress / less remaining time
	// has the larger R and must receive more power when the budget is
	// scarce.
	n := 8
	k := uniformK(n, 9.6)
	m, _ := NewMPC(DefaultMPCConfig(n, 9.6))
	freqs := uniformK(n, 1.2)
	weights := ones(n)
	weights[0] = 10  // far behind schedule
	weights[1] = 0.1 // nearly done
	c := 100.0
	// Scarce budget: mean frequency ≈ 1.0.
	target := c + 9.6*float64(n)*1.0
	for s := 0; s < 30; s++ {
		p := linearPlant(k, freqs, c)
		next, err := m.Step(p, target, freqs, weights)
		if err != nil {
			t.Fatal(err)
		}
		freqs = next
	}
	if freqs[0] <= freqs[1] {
		t.Fatalf("urgent core %v should run faster than relaxed core %v", freqs[0], freqs[1])
	}
	if freqs[0] <= freqs[2] || freqs[1] >= freqs[2] {
		t.Fatalf("ordering wrong: urgent %v, normal %v, relaxed %v", freqs[0], freqs[2], freqs[1])
	}
}

// Robustness (paper Section V-C / VI-A): the controller designed on the
// linear model must converge when the plant is the richer Horvath-Skadron
// measurement model with fan disturbance.
func TestMPCConvergesOnNonlinearPlant(t *testing.T) {
	params := server.DefaultParams()
	// One server's row of the rack's core table: eight batch cores.
	freqs := make([]float64, 8)
	utils := make([]float64, 8)
	for i := range freqs {
		freqs[i] = params.PStates.Quantize(0.4)
		utils[i] = 0.95
	}
	co := params.DesignCoeffs(0.9)
	m, _ := NewMPC(DefaultMPCConfig(8, co.KWPerGHz))
	env := server.Environment{AmbientC: 28} // off-nominal ambient

	target := 230.0 // between idle 150 and full ~300
	// The controller tracks its own commanded (continuous) frequencies;
	// the modulator quantizes to P-states. Feeding quantized values back
	// into the optimizer would deadband small corrective moves.
	cmd := uniformK(8, 0.4)
	var p float64
	for s := 0; s < 30; s++ {
		p = params.Power(freqs, utils, env)
		next, err := m.Step(p, target, cmd, ones(8))
		if err != nil {
			t.Fatal(err)
		}
		cmd = next
		for i := 0; i < 8; i++ {
			freqs[i] = params.PStates.Quantize(next[i]) // the rack's modulator
		}
	}
	p = params.Power(freqs, utils, env)
	if rel := math.Abs(p-target) / target; rel > 0.05 {
		t.Fatalf("nonlinear plant: settled at %v vs target %v (rel %.3f)", p, target, rel)
	}
}

package control

import (
	"math"
	"testing"
)

func TestPIConfigValidate(t *testing.T) {
	good := DefaultPIConfig(8, 8*9.6)
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*PIConfig)
	}{
		{"zero kp", func(c *PIConfig) { c.Kp = 0 }},
		{"negative ki", func(c *PIConfig) { c.Ki = -1 }},
		{"zero period", func(c *PIConfig) { c.PeriodS = 0 }},
		{"bad bounds", func(c *PIConfig) { c.FMaxGHz = 0.1 }},
		{"zero cores", func(c *PIConfig) { c.Cores = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultPIConfig(8, 8*9.6)
		tc.mutate(&cfg)
		if _, err := NewPI(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPIConvergesOnLinearPlant(t *testing.T) {
	n := 16
	k := uniformK(n, 9.6)
	sumK := 9.6 * float64(n)
	pi, _ := NewPI(DefaultPIConfig(n, sumK))
	c := 150.0
	freqs := uniformK(n, 0.4)
	target := c + sumK*1.4
	var p float64
	for s := 0; s < 40; s++ {
		p = linearPlant(k, freqs, c)
		freqs = pi.Step(p, target, freqs)
	}
	p = linearPlant(k, freqs, c)
	if rel := math.Abs(p-target) / target; rel > 0.03 {
		t.Fatalf("PI settled at %v vs %v (rel %.3f)", p, target, rel)
	}
}

func TestPIRespectsBounds(t *testing.T) {
	pi, _ := NewPI(DefaultPIConfig(4, 4*9.6))
	freqs := pi.Step(0, 1e6, uniformK(4, 1.0))
	for _, f := range freqs {
		if f > 2.0 {
			t.Fatalf("frequency %v above bound", f)
		}
	}
	freqs = pi.Step(1e6, 0, uniformK(4, 1.0))
	for _, f := range freqs {
		if f < 0.4 {
			t.Fatalf("frequency %v below bound", f)
		}
	}
}

func TestPIAntiWindup(t *testing.T) {
	// Hold an unreachable target for a long time, then drop it; the
	// integral must not have wound up so far that recovery stalls.
	n := 4
	k := uniformK(n, 9.6)
	sumK := 9.6 * float64(n)
	pi, _ := NewPI(DefaultPIConfig(n, sumK))
	c := 50.0
	freqs := uniformK(n, 1.0)
	for s := 0; s < 200; s++ {
		p := linearPlant(k, freqs, c)
		freqs = pi.Step(p, 1e5, freqs) // unreachable
	}
	target := c + sumK*1.0
	var p float64
	for s := 0; s < 40; s++ {
		p = linearPlant(k, freqs, c)
		freqs = pi.Step(p, target, freqs)
	}
	p = linearPlant(k, freqs, c)
	if rel := math.Abs(p-target) / target; rel > 0.05 {
		t.Fatalf("post-windup recovery failed: %v vs %v", p, target)
	}
}

func TestPIUniformMove(t *testing.T) {
	// The PI baseline cannot differentiate cores: all moves are equal.
	pi, _ := NewPI(DefaultPIConfig(3, 3*9.6))
	next := pi.Step(100, 200, []float64{1.0, 1.0, 1.0})
	if next[0] != next[1] || next[1] != next[2] {
		t.Fatalf("PI moves must be uniform, got %v", next)
	}
}

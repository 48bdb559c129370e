package control

import (
	"math"
	"testing"
)

func fullCfg(n int) MPCConfig {
	cfg := DefaultMPCConfig(n, 9.6)
	cfg.FullHorizon = true
	return cfg
}

func TestFullHorizonRespectsBounds(t *testing.T) {
	m, err := NewMPC(fullCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ pfb, target float64 }{{0, 1e6}, {1e6, 0}} {
		next, err := m.Step(tc.pfb, tc.target, uniformK(8, 1.0), ones(8))
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range next {
			if f < 0.4-1e-9 || f > 2.0+1e-9 {
				t.Fatalf("core %d frequency %v out of bounds", i, f)
			}
		}
	}
}

func TestFullHorizonConvergesFasterThanSimplified(t *testing.T) {
	// The constant-move simplification averages the first move down; the
	// full horizon may take a larger first step and must close the gap
	// at least as fast on the design model.
	n := 16
	k := uniformK(n, 9.6)
	c := 150.0
	target := c + 9.6*float64(n)*1.5

	settle := func(cfg MPCConfig) int {
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		freqs := uniformK(n, 0.4)
		for s := 0; s < 40; s++ {
			p := linearPlant(k, freqs, c)
			if math.Abs(p-target) <= 0.02*target {
				return s
			}
			next, err := m.Step(p, target, freqs, ones(n))
			if err != nil {
				t.Fatal(err)
			}
			freqs = next
		}
		return 40
	}
	simple := settle(DefaultMPCConfig(n, 9.6))
	full := settle(fullCfg(n))
	if full > simple {
		t.Fatalf("full horizon settles in %d periods, simplified in %d", full, simple)
	}
	if full == 40 {
		t.Fatal("full horizon never settled")
	}
}

func TestFullHorizonNoOvershoot(t *testing.T) {
	n := 8
	k := uniformK(n, 9.6)
	cfg := fullCfg(n)
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
	if maxP > target*1.03 {
		t.Fatalf("overshoot: peak %v vs target %v", maxP, target)
	}
}

func TestFullHorizonUrgencyOrdering(t *testing.T) {
	n := 8
	k := uniformK(n, 9.6)
	m, _ := NewMPC(fullCfg(n))
	freqs := uniformK(n, 1.2)
	weights := ones(n)
	weights[0] = 10
	weights[1] = 0.1
	c := 100.0
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
		t.Fatalf("urgent core %v should outrun relaxed core %v", freqs[0], freqs[1])
	}
}

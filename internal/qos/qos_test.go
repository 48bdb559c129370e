package qos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero service", func(c *Config) { c.BaseServiceMs = 0 }},
		{"slo below service", func(c *Config) { c.SLOMs = 1 }},
		{"cap below slo", func(c *Config) { c.SaturationCapMs = 10 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestResponseTimeBasics(t *testing.T) {
	c := DefaultConfig()
	// Unloaded core at peak: exactly the base service time.
	ms, sat := c.ResponseTime(0, 1)
	if sat || ms != c.BaseServiceMs {
		t.Fatalf("unloaded: %v, %v", ms, sat)
	}
	// Half load at peak: 2× the service time (M/M/1).
	ms, sat = c.ResponseTime(0.5, 1)
	if sat || math.Abs(ms-2*c.BaseServiceMs) > 1e-9 {
		t.Fatalf("half load: %v", ms)
	}
	// Same offered load on a half-speed core: saturated.
	_, sat = c.ResponseTime(0.5, 0.5)
	if !sat {
		t.Fatal("ρ = 1 should saturate")
	}
	// Outage.
	ms, sat = c.ResponseTime(0.5, 0)
	if !sat || ms != c.SaturationCapMs {
		t.Fatalf("outage: %v, %v", ms, sat)
	}
}

func TestResponseTimeMonotoneInFrequency(t *testing.T) {
	c := DefaultConfig()
	prev := math.Inf(1)
	for _, f := range []float64{0.5, 0.6, 0.8, 1.0} {
		ms, _ := c.ResponseTime(0.4, f)
		if ms >= prev {
			t.Fatalf("latency should fall with frequency at f=%v", f)
		}
		prev = ms
	}
}

// Property: latency is non-decreasing in demand and capped.
func TestResponseTimeMonotoneDemandProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(d1, d2, rawF float64) bool {
		fr := 0.2 + math.Mod(math.Abs(rawF), 0.8)
		a := math.Mod(math.Abs(d1), 1.2)
		b := math.Mod(math.Abs(d2), 1.2)
		if a > b {
			a, b = b, a
		}
		la, _ := c.ResponseTime(a, fr)
		lb, _ := c.ResponseTime(b, fr)
		return la <= lb+1e-9 && lb <= c.SaturationCapMs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluate(t *testing.T) {
	c := DefaultConfig()
	demand := []float64{0.3, 0.5, 0.9, 0.5}
	freq := []float64{1, 1, 0.5, 1} // third sample saturates
	s, err := c.Evaluate(demand, freq)
	if err != nil {
		t.Fatal(err)
	}
	if s.SaturatedFrac != 0.25 {
		t.Fatalf("SaturatedFrac = %v", s.SaturatedFrac)
	}
	if s.SLOViolFrac != 0.25 {
		t.Fatalf("SLOViolFrac = %v", s.SLOViolFrac)
	}
	if s.MeanMs <= c.BaseServiceMs || s.P99Ms < s.MeanMs {
		t.Fatalf("summary implausible: %+v", s)
	}
	if _, err := c.Evaluate(nil, nil); err == nil {
		t.Fatal("empty series should error")
	}
	if _, err := c.Evaluate(demand, freq[:2]); err == nil {
		t.Fatal("length mismatch should error")
	}
	bad := c
	bad.BaseServiceMs = 0
	if _, err := bad.Evaluate(demand, freq); err == nil {
		t.Fatal("invalid config should error")
	}
}

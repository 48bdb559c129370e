package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInteractiveConfigValidate(t *testing.T) {
	if err := DefaultInteractiveConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*InteractiveConfig)
	}{
		{"bad base", func(c *InteractiveConfig) { c.Base = 1.5 }},
		{"bad peak", func(c *InteractiveConfig) { c.BurstPeak = 2 }},
		{"burst backwards", func(c *InteractiveConfig) { c.BurstStartS = 100; c.BurstEndS = 50 }},
		{"bad corr", func(c *InteractiveConfig) { c.NoiseCorr = 1 }},
		{"bad spike prob", func(c *InteractiveConfig) { c.SpikeProb = 2 }},
		{"negative ramp", func(c *InteractiveConfig) { c.RampS = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultInteractiveConfig()
		tc.mutate(&cfg)
		if _, err := GenInteractive(cfg, 100, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := GenInteractive(DefaultInteractiveConfig(), 0, 1); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := GenInteractive(DefaultInteractiveConfig(), 10, 0); err == nil {
		t.Error("zero dt should fail")
	}
}

func TestGenInteractiveDeterministic(t *testing.T) {
	cfg := DefaultInteractiveConfig()
	a, err := GenInteractive(cfg, 900, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenInteractive(cfg, 900, 1)
	for i := range a.Demand {
		if a.Demand[i] != b.Demand[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	cfg.Seed = 2
	c, _ := GenInteractive(cfg, 900, 1)
	same := true
	for i := range a.Demand {
		if a.Demand[i] != c.Demand[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenInteractiveBounds(t *testing.T) {
	tr, err := GenInteractive(DefaultInteractiveConfig(), 900, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Demand) != 900 {
		t.Fatalf("trace length %d, want 900", len(tr.Demand))
	}
	for i, d := range tr.Demand {
		if d < 0 || d > 1.2 {
			t.Fatalf("demand[%d] = %v out of [0, 1.2]", i, d)
		}
	}
}

func TestBurstRaisesDemand(t *testing.T) {
	cfg := DefaultInteractiveConfig()
	cfg.BurstStartS = 300
	cfg.BurstEndS = 600
	cfg.NoiseStd = 0 // isolate the burst envelope
	cfg.SpikeProb = 0
	cfg.DiurnalAmp = 0
	tr, err := GenInteractive(cfg, 900, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(100); math.Abs(got-cfg.Base) > 1e-9 {
		t.Fatalf("pre-burst demand %v, want base %v", got, cfg.Base)
	}
	if got := tr.At(450); math.Abs(got-cfg.BurstPeak) > 1e-9 {
		t.Fatalf("mid-burst demand %v, want peak %v", got, cfg.BurstPeak)
	}
	if got := tr.At(800); math.Abs(got-cfg.Base) > 1e-9 {
		t.Fatalf("post-burst demand %v, want base %v", got, cfg.Base)
	}
	// Ramps are strictly between base and peak.
	mid := tr.At(cfg.BurstStartS + cfg.RampS/2)
	if mid <= cfg.Base || mid >= cfg.BurstPeak {
		t.Fatalf("ramp demand %v not between base and peak", mid)
	}
}

func TestTraceFluctuates(t *testing.T) {
	// The UPS controller's job only exists because interactive demand
	// fluctuates; the default trace must not be flat.
	tr, err := GenInteractive(DefaultInteractiveConfig(), 900, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summary()
	if s.Std < 0.02 {
		t.Fatalf("trace std %v too small — no fluctuation to control", s.Std)
	}
	if s.Max-s.Min < 0.1 {
		t.Fatalf("trace range %v too small", s.Max-s.Min)
	}
}

func TestAtClampsOutOfRange(t *testing.T) {
	tr, _ := GenInteractive(DefaultInteractiveConfig(), 10, 1)
	if tr.At(-5) != tr.Demand[0] {
		t.Fatal("At before start should clamp")
	}
	if tr.At(1e9) != tr.Demand[len(tr.Demand)-1] {
		t.Fatal("At past end should clamp")
	}
}

func TestDurationAndEmptySummary(t *testing.T) {
	tr, _ := GenInteractive(DefaultInteractiveConfig(), 120, 0.5)
	if d := float64(len(tr.Demand)) * tr.DtS; math.Abs(d-120) > 0.5 {
		t.Fatalf("duration = %v", d)
	}
	empty := &InteractiveTrace{DtS: 1}
	if s := empty.Summary(); s.Mean != 0 || s.Std != 0 {
		t.Fatal("empty summary should be zero")
	}
}

// Property: demand stays within bounds for arbitrary seeds and noise levels.
func TestGenInteractiveBoundsProperty(t *testing.T) {
	f := func(seed int64, rawNoise float64) bool {
		cfg := DefaultInteractiveConfig()
		cfg.Seed = seed
		cfg.NoiseStd = math.Mod(math.Abs(rawNoise), 0.3)
		tr, err := GenInteractive(cfg, 300, 1)
		if err != nil {
			return false
		}
		for _, d := range tr.Demand {
			if d < 0 || d > 1.2 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

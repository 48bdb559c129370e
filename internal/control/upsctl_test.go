package control

import (
	"math"
	"testing"

	"sprintcon/internal/ups"
)

func TestUPSControllerConfigValidate(t *testing.T) {
	if err := DefaultUPSControllerConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*UPSControllerConfig)
	}{
		{"zero period", func(c *UPSControllerConfig) { c.PeriodS = 0 }},
		{"negative ki", func(c *UPSControllerConfig) { c.TrimKi = -1 }},
		{"negative limit", func(c *UPSControllerConfig) { c.TrimLimitW = -1 }},
		{"no authority", func(c *UPSControllerConfig) { c.Feedforward = false; c.TrimKi = 0; c.TrimKp = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultUPSControllerConfig()
		tc.mutate(&cfg)
		if _, err := NewUPSController(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestFeedforwardExactWithoutError(t *testing.T) {
	cfg := DefaultUPSControllerConfig()
	cfg.TargetMarginW = 0
	c, _ := NewUPSController(cfg)
	// CB exactly on budget → request is exactly the excess.
	got := c.Step(4000, 3200, 3200)
	if math.Abs(got-800) > 1e-9 {
		t.Fatalf("request = %v, want 800", got)
	}
}

func TestTargetMarginBiasesBelowBudget(t *testing.T) {
	cfg := DefaultUPSControllerConfig()
	cfg.TargetMarginW = 30
	c, _ := NewUPSController(cfg)
	// On budget → the margin still requests a little extra discharge.
	got := c.Step(4000, 3200, 3200)
	if got <= 800 {
		t.Fatalf("request = %v, want > 800 with a safety margin", got)
	}
}

func TestNoDischargeUnderBudget(t *testing.T) {
	c, _ := NewUPSController(DefaultUPSControllerConfig())
	if got := c.Step(3000, 3000, 3200); got != 0 {
		t.Fatalf("request = %v, want 0 when under budget", got)
	}
}

func TestTrimCorrectsQuantizationBias(t *testing.T) {
	// Closed loop against a real UPS with coarse 5 % duty quantization:
	// the integral trim must drive the mean CB power to the budget.
	upsCfg := ups.DefaultConfig()
	upsCfg.DutyQuantum = 0.05
	battery, err := ups.New(upsCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctlCfg := DefaultUPSControllerConfig()
	ctlCfg.TargetMarginW = 0 // isolate the trim behaviour
	ctl, _ := NewUPSController(ctlCfg)
	pcb := 3200.0
	total := 4000.0
	cb := total
	var sumErr float64
	const steps = 300
	for s := 0; s < steps; s++ {
		req := ctl.Step(total, cb, pcb)
		delivered := battery.Discharge(req, total, 1)
		cb = total - delivered
		if s >= steps/2 {
			sumErr += cb - pcb
		}
	}
	meanErr := sumErr / float64(steps/2)
	if math.Abs(meanErr) > 20 {
		t.Fatalf("steady-state CB error %v W too large", meanErr)
	}
}

func TestTrimBounded(t *testing.T) {
	cfg := DefaultUPSControllerConfig()
	cfg.TrimLimitW = 100
	c, _ := NewUPSController(cfg)
	for s := 0; s < 1000; s++ {
		c.Step(5000, 5000, 3200) // persistent large error
	}
	if c.trim > 100+1e-9 {
		t.Fatalf("trim %v exceeded limit", c.trim)
	}
}

func TestRequestNeverNegative(t *testing.T) {
	c, _ := NewUPSController(DefaultUPSControllerConfig())
	for s := 0; s < 100; s++ {
		if got := c.Step(1000, 1000, 3200); got < 0 {
			t.Fatalf("negative request %v", got)
		}
	}
}

func TestPurePIVariantStillRegulates(t *testing.T) {
	// Ablation A3: without feedforward, a PI on the CB error alone must
	// still converge, only slower.
	cfg := UPSControllerConfig{PeriodS: 1, TrimKi: 0.3, TrimKp: 0.5, TrimLimitW: 2000, Feedforward: false}
	ctl, err := NewUPSController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upsCfg := ups.DefaultConfig()
	upsCfg.DutyQuantum = 0
	battery, _ := ups.New(upsCfg)
	pcb := 3200.0
	total := 4000.0
	cb := total
	for s := 0; s < 200; s++ {
		req := ctl.Step(total, cb, pcb)
		delivered := battery.Discharge(req, total, 1)
		cb = total - delivered
	}
	if math.Abs(cb-pcb) > 50 {
		t.Fatalf("pure-PI variant settled at CB %v vs budget %v", cb, pcb)
	}
}

package control

import (
	"math"
	"testing"
)

func TestMeasurementGuard(t *testing.T) {
	type step struct {
		rawW, modelW float64
		wantW        float64
		wantOK       bool
		wantConf     float64
	}
	nan := math.NaN()
	cases := []struct {
		name         string
		detectFreeze bool
		steps        []step
	}{
		{"freeze flagged after freezeTicks repeats", true, []step{
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
			{1000, 1200, 1050, false, 0.5}, // third repeat: frozen
			{1000, 1200, 1087.5, false, 0.25},
			{1001, 1200, 1001, true, 0.59}, // a fresh reading clears it
		}},
		{"repeats pass with freeze detection off", false, []step{
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
			{1000, 1000, 1000, true, 1},
		}},
		{"slew band rejects a spike", true, []step{
			{1000, 1000, 1000, true, 1},
			{1301, 1000, 1000, false, 0.5}, // band is 0.3·1000 = 300 W
			{1299, 1000, 1299, true, 0.84},
			{900, 1000, 1224.25, false, 0.42}, // band 0.3·1299 = 389.7 W
		}},
		{"slew floor at low power", true, []step{
			{100, 100, 100, true, 1},
			{349, 100, 349, true, 1},       // inside the 250 W floor
			{600, 100, 286.75, false, 0.5}, // 251 W step, 250 W floor
		}},
		{"invalid readings decay toward the model", false, []step{
			{nan, 800, 800, false, 0.5}, // no good reading yet: the model
			{1000, 800, 1000, true, 0.84},
			{nan, 2000, 1250, false, 0.42},
			{-1, 2000, 1437.5, false, 0.21},
			{math.Inf(1), 2000, 1578.125, false, 0.105},
		}},
		{"confidence decays and recovers", false, []step{
			{1000, 1000, 1000, true, 1},
			{nan, 1000, 1000, false, 0.5},
			{nan, 1000, 1000, false, 0.25},
			{1000, 1000, 1000, true, 0.59},
			{1000, 1000, 1000, true, 0.93},
			{1000, 1000, 1000, true, 1}, // clamped at 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewMeasurementGuard(tc.detectFreeze)
			for i, s := range tc.steps {
				got, ok := g.Step(s.rawW, s.modelW)
				if got != s.wantW || ok != s.wantOK {
					t.Fatalf("step %d: Step(%g, %g) = %g, %v; want %g, %v", i, s.rawW, s.modelW, got, ok, s.wantW, s.wantOK)
				}
				if c := g.Confidence(); math.Abs(c-s.wantConf) > 1e-12 {
					t.Fatalf("step %d: confidence %g, want %g", i, c, s.wantConf)
				}
			}
		})
	}
}

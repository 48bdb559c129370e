package core

import (
	"fmt"
	"testing"

	"sprintcon/internal/obs"
	"sprintcon/internal/sim"
)

// TestDetectorsQuietAtAnyTick runs the fault-free default scenario with an
// observability plane at several tick lengths: the detectors that integrate
// or extrapolate over time (UPS gauge consistency, SoC depletion) must scale
// by the run's tick, so no tick length may raise an alert.
func TestDetectorsQuietAtAnyTick(t *testing.T) {
	for _, dt := range []float64{0.5, 1, 2} {
		t.Run(fmt.Sprint("dt=", dt), func(t *testing.T) {
			scn := sim.DefaultScenario()
			scn.DtS = dt
			plane := obs.NewPlane(0, obs.DefaultDetectorConfig())
			if _, err := sim.RunWith(scn, New(DefaultConfig()), sim.RunOptions{Obs: plane}); err != nil {
				t.Fatal(err)
			}
			for _, a := range plane.Alerts() {
				t.Errorf("alert at %g s: %s (%s)", a.AtS, a.Detector, a.Detail)
			}
		})
	}
}

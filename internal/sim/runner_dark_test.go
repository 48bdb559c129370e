package sim

import "testing"

// Dark must report the rack's power-outage state tick by tick: the linked
// cluster loop uses it to suppress heartbeats from a dark rack so the
// coordinator's timeout path reclaims its overload slot.
func TestRunnerDarkReportsOutage(t *testing.T) {
	scn := DefaultScenario()
	// Pin every core at peak frequency: the breaker trips, the UPS drains,
	// and the rack eventually goes dark (same recipe as the outage-event
	// test).
	p := maxPowerPolicy(scn)
	r, err := NewRunner(scn, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	darkTicks := 0
	for !r.Done() {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
		if r.Dark() {
			darkTicks++
		}
	}
	if darkTicks == 0 {
		t.Fatal("max-power run never reported Dark() despite guaranteed outage")
	}
	res := r.Finish()
	if res.OutageS == 0 {
		t.Fatal("run recorded no outage seconds; the Dark() recipe is broken")
	}
}

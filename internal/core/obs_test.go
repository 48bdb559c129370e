package core

import (
	"fmt"
	"testing"

	"sprintcon/internal/checkpoint"
	"sprintcon/internal/faults"
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

// lockedCountProbe checks, after every tick, the O(servers) locked-core
// count against a count of the per-core exclusion mask.
type lockedCountProbe struct {
	*SprintCon
	t                            *testing.T
	ticks, mixed, both, restores int
}

func (p *lockedCountProbe) RestoreCheckpoint(env *sim.Env, scn sim.Scenario, st *checkpoint.ControllerState, now float64) error {
	if st != nil {
		p.restores++
	}
	return p.SprintCon.RestoreCheckpoint(env, scn, st, now)
}

func (p *lockedCountProbe) Tick(env *sim.Env, snap sim.Snapshot) float64 {
	req := p.SprintCon.Tick(env, snap)
	var want, offline int
	for i, ref := range env.Rack.BatchCores() {
		switch {
		case env.Rack.ServerOffline(ref.Server):
			want++
			offline++
			if p.hd.locked[i] {
				p.both++
			}
		case p.hd.locked[i]:
			want++
		}
	}
	if got := p.lockedCores(env); got != want {
		p.t.Fatalf("t=%g s: locked-core count %d, mask counts %d", snap.Now, got, want)
	}
	p.ticks++
	if want > offline && offline > 0 {
		p.mixed++ // the count sums both kinds of exclusion
	}
	return req
}

// TestLockedCoreCountMatchesMask: on every tick of a run with stuck
// actuators, crashed servers (one of them a stuck server, so a core is
// locked and offline at once) and a controller crash restored from a
// checkpoint, the locked-core count the plane and the watchdog gauge read
// equals the count of the mask the MPC excludes.
func TestLockedCoreCountMatchesMask(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.DurationS = 600
	scn.Faults = faults.Plan{Faults: []faults.Fault{
		{Kind: faults.ActuatorStuck, Server: 3, OnsetS: 60, DurationS: 400, Severity: 1},
		{Kind: faults.ActuatorStuck, Server: 9, OnsetS: 100, DurationS: 200, Severity: 1},
		{Kind: faults.ServerCrash, Server: 3, OnsetS: 200, DurationS: 100, Severity: 1},
		{Kind: faults.ServerCrash, Server: 12, OnsetS: 150, DurationS: 60, Severity: 1},
		{Kind: faults.ControllerCrash, OnsetS: 250, DurationS: 1, Severity: 2},
	}}
	p := &lockedCountProbe{SprintCon: New(DefaultConfig()), t: t}
	if _, err := sim.RunWith(scn, p, sim.RunOptions{Checkpoint: &sim.CheckpointOptions{Store: checkpoint.NewMemStore()}}); err != nil {
		t.Fatal(err)
	}
	if p.ticks == 0 || p.both == 0 || p.mixed == 0 || p.restores == 0 {
		t.Fatalf("run exercised %d ticks, %d locked-and-offline core ticks, %d ticks with both kinds of exclusion, %d restores; want all positive",
			p.ticks, p.both, p.mixed, p.restores)
	}
}

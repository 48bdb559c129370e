package core

import (
	"testing"

	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
)

// rackFaultKinds are the fault kinds a single-rack scenario accepts (the
// rack-local Injector's taxonomy; link kinds need a cluster).
var rackFaultKinds = []faults.Kind{
	faults.MonitorDropout, faults.MonitorFreeze, faults.MonitorBias,
	faults.MeasurementDelay, faults.ActuatorStuck, faults.ActuatorLag,
	faults.ServerCrash, faults.UPSPathFailure, faults.UPSGaugeBias,
	faults.ControllerCrash,
}

// decodeEventScenario turns fuzz bytes into a quiescent tick-vs-event case.
// Every byte string decodes (missing bytes read as zero), so no input is
// wasted on rejection:
//
//	b[0]      plateau level count, 4–6
//	b[1..6]   levels in [0.45, 0.8]
//	b[7]      plateau length, 300–3000 s
//	b[8]      duration, 1800–7200 s
//	b[9]      bit 0: NoSprint; bit 1: inject one fault
//	b[10]     SeriesStride, 1–60
//	b[11..15] fault kind, onset, duration (5–1280 s), severity, server
func decodeEventScenario(t *testing.T, b []byte) (sim.Scenario, Config, sim.RunOptions) {
	t.Helper()
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	levels := make([]float64, 4+at(0)%3)
	for i := range levels {
		levels[i] = 0.45 + 0.35*float64(at(1+i))/255
	}
	durationS := float64(1800 + 60*(at(8)%91))
	scn := plateauScenario(t, levels, float64(300+60*(at(7)%46)), durationS)

	if at(9)&2 != 0 {
		f := faults.Fault{
			Kind:      rackFaultKinds[at(11)%len(rackFaultKinds)],
			OnsetS:    float64(int(durationS) * at(12) / 256),
			DurationS: float64(5 * (1 + at(13))),
		}
		u := float64(at(14)) / 255
		switch f.Kind {
		case faults.MonitorBias:
			f.Severity = -0.4 + 0.8*u
		case faults.MeasurementDelay:
			f.Severity = 1 + 10*u
		case faults.ActuatorLag:
			f.Severity = 0.1 + 0.8*u
		case faults.UPSGaugeBias:
			f.Severity = -0.3 + 0.6*u
		case faults.ControllerCrash:
			f.Severity = 30 * u
		}
		if f.Kind.Scope() == faults.ScopeServer {
			f.Server = at(15) % scn.Rack.NumServers
		}
		scn.Faults = faults.Plan{Faults: []faults.Fault{f}}
	}
	if err := scn.Validate(); err != nil {
		t.Fatalf("decoded an invalid scenario: %v", err)
	}

	cfg := DefaultConfig()
	cfg.NoSprint = at(9)&1 != 0
	return scn, cfg, sim.RunOptions{SeriesStride: 1 + at(10)%60}
}

// eventFuzzSeeds open spans (TestEventFuzzSeedsOpenSpans holds them to
// it), so the mutator starts from inputs that exercise span planning and
// closure rather than pure tick fallback.
var eventFuzzSeeds = [][]byte{
	// quiesceScenario's levels (0.5, 0.62, 0.75, 0.55), 1800 s plateaus,
	// 2 h, capping, stride 60.
	{0, 36, 124, 219, 73, 0, 0, 25, 90, 1, 59},
	// The same levels sprinting, 1 h plateaus, 2 h, stride 1.
	{0, 36, 124, 219, 73, 0, 0, 55, 90, 0, 0},
	// Six levels, 900 s plateaus, 1.5 h, capping, stride 10, a 400 s
	// monitor bias from the half-way point.
	{2, 36, 124, 219, 73, 120, 200, 10, 60, 3, 9, 2, 128, 79, 200},
	// The first seed with a 155 s crash of server 5 at 1125 s.
	{0, 36, 124, 219, 73, 0, 0, 25, 90, 3, 59, 6, 40, 30, 0, 5},
}

// FuzzEventMatchesTick is the generative tick ≡ event check: every decoded
// quiescent scenario must give bit-identical results under the
// Runner.Step loop and under RunWith, whether or not spans open.
func FuzzEventMatchesTick(f *testing.F) {
	for _, b := range eventFuzzSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		scn, cfg, opts := decodeEventScenario(t, b)
		tick, event := runBoth(t, cfg, scn, opts)
		assertBitIdentical(t, tick, event)
	})
}

// TestEventFuzzSeedsOpenSpans keeps FuzzEventMatchesTick's seed corpus
// useful: each seed must actually fast-forward.
func TestEventFuzzSeedsOpenSpans(t *testing.T) {
	for i, b := range eventFuzzSeeds {
		scn, cfg, opts := decodeEventScenario(t, b)
		res, err := sim.RunWith(scn, New(cfg), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine.Spans == 0 {
			t.Errorf("seed %d opened no spans", i)
		}
	}
}

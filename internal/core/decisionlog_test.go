package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/baseline"
	"sprintcon/internal/faults"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// tracePolicies are the policies whose decision traces the retaining log
// is held to, by their sprintsim names.
var tracePolicies = []struct {
	name string
	make func() sim.Policy
}{
	{"sprintcon", func() sim.Policy { return New(DefaultConfig()) }},
	{"sprintcon-pi", func() sim.Policy {
		cfg := DefaultConfig()
		cfg.Controller = ControllerPI
		return New(cfg)
	}},
	{"sgct", func() sim.Policy { return baseline.New(baseline.SGCT) }},
	{"sgct-v2", func() sim.Policy { return baseline.New(baseline.SGCTV2) }},
	{"sprintcon -unhardened", func() sim.Policy {
		cfg := DefaultConfig()
		cfg.Harden.Disabled = true
		return New(cfg)
	}},
}

// genFault draws one fault of kind k inside a run of durationS seconds,
// with severities over the ranges E18 and the event fuzzer use.
func genFault(rng *rand.Rand, k faults.Kind, durationS float64, servers int) faults.Fault {
	f := faults.Fault{
		Kind:      k,
		OnsetS:    float64(rng.Intn(int(durationS / 2))),
		DurationS: float64(30 + rng.Intn(int(durationS/2))),
	}
	u := rng.Float64()
	switch k {
	case faults.MonitorBias:
		f.Severity = -0.4 + 0.8*u
	case faults.MeasurementDelay:
		f.Severity = 1 + 10*u
	case faults.ActuatorLag:
		f.Severity = 0.1 + 0.8*u
	case faults.UPSGaugeBias:
		f.Severity = -0.3 + 0.9*u
	case faults.ControllerCrash:
		f.Severity = 30 * u
	}
	if k.Scope() == faults.ScopeServer {
		f.Server = rng.Intn(servers+1) - 1 // -1 is every server
	}
	return f
}

// checkLogMatchesEncoder runs scn twice under fresh instances of one
// policy, once into the encoding sink and once into a log retaining at
// most max records, and requires the log's rendered records to be the
// encoder's last lines byte for byte, with the same record count and the
// same error. It returns the log's drop count and the sink error.
func checkLogMatchesEncoder(t *testing.T, scn sim.Scenario, policy func() sim.Policy, max int) (int64, error) {
	t.Helper()
	var want bytes.Buffer
	enc := telemetry.NewDecisionSink(&want)
	if _, err := sim.RunWith(scn, policy(), sim.RunOptions{Decisions: enc}); err != nil {
		t.Fatal(err)
	}
	l := telemetry.NewDecisionLog(max)
	kept := telemetry.NewDecisionLogSink(l)
	if _, err := sim.RunWith(scn, policy(), sim.RunOptions{Decisions: kept}); err != nil {
		t.Fatal(err)
	}
	if kept.Count() != enc.Count() || (kept.Err() == nil) != (enc.Err() == nil) ||
		kept.Err() != nil && kept.Err().Error() != enc.Err().Error() {
		t.Fatalf("log sink kept %d records (err %v), encoder wrote %d (err %v)", kept.Count(), kept.Err(), enc.Count(), enc.Err())
	}
	recs, next, _, _ := l.Next(0)
	dropped := int64(next - len(recs))
	if int64(next) != kept.Count() {
		t.Fatalf("log at index %d with %d retained, sink counted %d", next, len(recs), kept.Count())
	}
	if max == 0 && dropped != 0 {
		t.Fatalf("unbounded log dropped %d records", dropped)
	}
	var got []byte
	for i := range recs {
		d := recs.Decision(i)
		var err error
		if got, err = telemetry.AppendDecision(got, &d); err != nil {
			t.Fatalf("rendering kept record %d: %v", i, err)
		}
	}
	lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty piece after the last newline
	if tail := bytes.Join(lines[len(lines)-len(recs):], nil); !bytes.Equal(got, tail) {
		t.Fatalf("rendered log (%d records, %d bytes) differs from the encoder's last %d lines (%d bytes)",
			len(recs), len(got), len(recs), len(tail))
	}
	return dropped, kept.Err()
}

// TestDecisionLogMatchesEncoderGenerated holds sprintd's retaining log to
// the encoding sink on generated runs: every policy, interactive seeds,
// every rack-level E18 fault kind with drawn onsets, durations and
// severities, and retention bounds small enough to drop. What a stream
// reader is served must be the bytes sprintsim -trace-jsonl writes.
func TestDecisionLogMatchesEncoderGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	kinds := append([]faults.Kind{""}, rackFaultKinds...)
	var cases, dropping int
	for i, k := range kinds {
		for j := 0; j < 3; j++ {
			p := tracePolicies[(3*i+j)%len(tracePolicies)]
			scn := sim.DefaultScenario()
			scn.DurationS = float64(180 + 60*rng.Intn(7))
			scn.BurstDurationS = scn.DurationS
			scn.Interactive.BurstEndS = scn.DurationS
			scn.Interactive.Seed = 1 + rng.Int63n(1000)
			if k != "" {
				scn.Faults = faults.Plan{Faults: []faults.Fault{genFault(rng, k, scn.DurationS, scn.Rack.NumServers)}}
			}
			max := []int{0, 8, 50}[rng.Intn(3)]
			t.Logf("%s seed %d faults %+v max %d", p.name, scn.Interactive.Seed, scn.Faults.Faults, max)
			if dropped, _ := checkLogMatchesEncoder(t, scn, p.make, max); dropped > 0 {
				dropping++
			}
			cases++
		}
	}
	if dropping == 0 || dropping == cases {
		t.Fatalf("%d of %d cases dropped records; want both kinds", dropping, cases)
	}
}

// TestDecisionLogWritesNaNFeedback: unhardened SprintCon under a monitor
// dropout feeds a NaN into the Eq. (6) feedback, which reaches mpc.pfb_w,
// ref_traj_w and freqs_ghz. Those are F fields, so the encoder writes the
// NaNs as null and keeps going (every control period has its record), the
// retaining log renders the same bytes, and ReadDecisions reads the nulls
// back as NaN.
func TestDecisionLogWritesNaNFeedback(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.Faults = faults.Plan{Faults: []faults.Fault{{Kind: faults.MonitorDropout, OnsetS: 100, DurationS: 60}}}
	unhardened := tracePolicies[len(tracePolicies)-1].make
	for _, max := range []int{0, 8} {
		if _, err := checkLogMatchesEncoder(t, scn, unhardened, max); err != nil {
			t.Fatalf("max %d: sink error %v", max, err)
		}
	}
	var buf bytes.Buffer
	enc := telemetry.NewDecisionSink(&buf)
	if _, err := sim.RunWith(scn, unhardened(), sim.RunOptions{Decisions: enc}); err != nil || enc.Err() != nil {
		t.Fatal(err, enc.Err())
	}
	recs, err := telemetry.ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pfb, ref, freqs int
	for _, d := range recs {
		if d.MPC == nil {
			continue
		}
		if math.IsNaN(float64(d.MPC.PfbW)) {
			pfb++
		}
		if len(d.MPC.RefTrajW) > 0 && math.IsNaN(float64(d.MPC.RefTrajW[0])) {
			ref++
		}
		if len(d.MPC.FreqsGHz) > 0 && math.IsNaN(float64(d.MPC.FreqsGHz[0])) {
			freqs++
		}
	}
	if periods := int(scn.DurationS / DefaultConfig().ControlPeriodS); len(recs) != periods || int64(len(recs)) != enc.Count() {
		t.Fatalf("read %d records, sink wrote %d; want one per control period (%d)", len(recs), enc.Count(), periods)
	}
	if pfb == 0 || ref == 0 || freqs == 0 {
		t.Fatalf("NaN read back in pfb_w %d, ref_traj_w %d, freqs_ghz %d records; the dropout should reach all three", pfb, ref, freqs)
	}
}

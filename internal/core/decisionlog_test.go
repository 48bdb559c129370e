package core

import (
	"bytes"
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

// TestDecisionLogStopsWhereEncoderStops: unhardened SprintCon under a
// monitor dropout feeds a NaN into the Eq. (6) feedback (mpc.pfb_w, a
// plain float); the retaining log must refuse the same record as the
// encoder, with the same error, and keep every record before it.
func TestDecisionLogStopsWhereEncoderStops(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.Faults = faults.Plan{Faults: []faults.Fault{{Kind: faults.MonitorDropout, OnsetS: 100, DurationS: 60}}}
	unhardened := tracePolicies[len(tracePolicies)-1].make
	for _, max := range []int{0, 8} {
		_, err := checkLogMatchesEncoder(t, scn, unhardened, max)
		if err == nil || err.Error() != "json: unsupported value: NaN" {
			t.Fatalf("max %d: sink error %v, want encoding/json's NaN refusal", max, err)
		}
	}
}

package sim

import (
	"errors"
	"strings"
	"testing"
)

func TestRunManyMatchesSequential(t *testing.T) {
	scn := shortScenario()
	seq, err := Run(scn, &stubPolicy{name: "a"})
	if err != nil {
		t.Fatal(err)
	}

	jobs := []Job{
		{Key: "a", Scenario: scn, Policy: &stubPolicy{name: "a"}},
		{Key: "b", Scenario: scn, Policy: &stubPolicy{name: "b", upsReq: 300}},
		{Key: "c", Scenario: scn, Policy: &stubPolicy{name: "c"}},
	}
	got, err := RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("results = %d", len(got))
	}
	// Determinism: the concurrent run of job "a" matches the sequential run.
	if got["a"].EnergyTotalWh != seq.EnergyTotalWh || got["a"].UPSDoD != seq.UPSDoD {
		t.Fatal("concurrent result differs from sequential")
	}
	// The UPS-using job actually differs.
	if got["b"].UPSDischargedWh == 0 {
		t.Fatal("job b should have discharged the UPS")
	}
}

func TestRunManyValidation(t *testing.T) {
	scn := shortScenario()
	if _, err := RunMany([]Job{{Key: "", Scenario: scn, Policy: &stubPolicy{name: "x"}}}); err == nil {
		t.Fatal("empty key should error")
	}
	if _, err := RunMany([]Job{
		{Key: "dup", Scenario: scn, Policy: &stubPolicy{name: "x"}},
		{Key: "dup", Scenario: scn, Policy: &stubPolicy{name: "y"}},
	}); err == nil {
		t.Fatal("duplicate keys should error")
	}
	empty, err := RunMany(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("nil jobs: %v, %v", empty, err)
	}
	bad := scn
	bad.DurationS = 0
	if _, err := RunMany([]Job{{Key: "bad", Scenario: bad, Policy: &stubPolicy{name: "x"}}}); err == nil {
		t.Fatal("invalid scenario should propagate")
	}
}

// With two failing jobs the reported failure is the first in job order, not
// whichever failed first in wall time: the slow panicking job precedes a
// job that fails at once.
func TestRunManyReportsFirstFailureInJobOrder(t *testing.T) {
	scn := shortScenario()
	slow := &stubPolicy{name: "slow", onTick: func(env *Env, s Snapshot) float64 {
		if s.Now >= 50 {
			panic("slow job failed")
		}
		return 0
	}}
	jobs := []Job{
		{Key: "ok", Scenario: scn, Policy: &stubPolicy{name: "ok"}},
		{Key: "slow-fail", Scenario: scn, Policy: slow},
		{Key: "fast-fail", Scenario: scn, Policy: &stubPolicy{name: "fast", startErr: errors.New("start refused")}},
	}
	_, err := RunMany(jobs)
	if err == nil || !strings.Contains(err.Error(), "job slow-fail") {
		t.Fatalf("err = %v, want the slow-fail job's error", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
}

package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// exampleScenarios reads the committed example scenario files — the fuzz
// seeds, also pinned valid by TestExampleScenariosLoad.
func exampleScenarios(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) == 0 {
		tb.Fatal("no example scenarios committed under testdata/scenarios")
	}
	out := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// TestExampleScenariosLoad keeps the committed examples loadable: they are
// the -scenario documentation and the fuzz corpus, so drift in the schema
// must update them.
func TestExampleScenariosLoad(t *testing.T) {
	for name, b := range exampleScenarios(t) {
		scn, err := ScenarioFromJSON(bytes.NewReader(b))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := ScenarioSum(scn); err != nil {
			t.Errorf("%s: fingerprint: %v", name, err)
		}
	}
}

// FuzzScenarioJSON holds the scenario loader to its contract: arbitrary
// bytes either produce a descriptive error or a scenario that passes
// Validate and runs through the engine's own pre-flight checks — never a
// panic, never more than MaxSteps ticks (the 1e308/1e-308 seed must be
// rejected), and never a scenario whose fault plan the fault layer rejects
// (a malformed controller-crash spec must not reach the run and restore
// into an overload-enabled state).
func FuzzScenarioJSON(f *testing.F) {
	for _, b := range exampleScenarios(f) {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"DurationS": 1e308, "DtS": 1e-308}`))
	f.Add([]byte(`{"Faults": {"Faults": [{"Kind": "controller-crash", "OnsetS": -1, "DurationS": 0, "Severity": -5}]}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		scn, err := ScenarioFromJSON(bytes.NewReader(b))
		if err != nil {
			return
		}
		if verr := scn.Validate(); verr != nil {
			t.Fatalf("loader accepted a scenario Validate rejects: %v", verr)
		}
		if n := scn.DurationS / scn.DtS; !(n <= MaxSteps) {
			t.Fatalf("loader accepted %g ticks, above MaxSteps %d", n, MaxSteps)
		}
		for _, flt := range scn.Faults.Faults {
			if flt.Kind == "controller-crash" && flt.Severity < 0 {
				t.Fatalf("loader accepted a negative controller-crash restart delay: %+v", flt)
			}
		}
	})
}

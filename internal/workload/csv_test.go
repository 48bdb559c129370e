package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestTraceFromCSV(t *testing.T) {
	in := "time_s,demand_frac\n0,0.4\n1,0.5\n2,0.6\n3,1.5\n"
	tr, err := TraceFromCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.DtS != 1 || len(tr.Demand) != 4 {
		t.Fatalf("dt=%v len=%d", tr.DtS, len(tr.Demand))
	}
	if tr.Demand[0] != 0.4 || tr.Demand[2] != 0.6 {
		t.Fatalf("demand = %v", tr.Demand)
	}
	if tr.Demand[3] != 1.2 {
		t.Fatalf("demand should clamp to 1.2, got %v", tr.Demand[3])
	}
}

func TestTraceFromCSVNoHeader(t *testing.T) {
	tr, err := TraceFromCSV(strings.NewReader("0,0.1\n0.5,0.2\n1.0,0.3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.DtS != 0.5 || len(tr.Demand) != 3 {
		t.Fatalf("dt=%v len=%d", tr.DtS, len(tr.Demand))
	}
}

func TestTraceFromCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"single row":    "0,0.5\n",
		"header only":   "time_s,demand_frac\n0,0.5\n",
		"bad demand":    "0,x\n1,0.5\n",
		"descending":    "0,0.5\n-1,0.5\n",
		"uneven step":   "0,0.5\n1,0.5\n5,0.5\n",
		"wrong columns": "0,0.5,9\n1,0.5,9\n",
		"non-monotonic": "0,0.5\n1,0.5\n0.5,0.5\n",
	}
	for name, in := range cases {
		if _, err := TraceFromCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTraceRoundTripThroughCSV(t *testing.T) {
	// Generate a trace, serialize it as time_s,demand_frac CSV, reload
	// it, and verify the samples survive.
	orig, err := GenInteractive(DefaultInteractiveConfig(), 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("time_s,demand_frac\n")
	for i, d := range orig.Demand {
		fmt.Fprintf(&buf, "%.3f,%.5f\n", float64(i), d)
	}
	loaded, err := TraceFromCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DtS != 1 || len(loaded.Demand) != len(orig.Demand) {
		t.Fatalf("dt=%v length %d vs %d", loaded.DtS, len(loaded.Demand), len(orig.Demand))
	}
	for i := range orig.Demand {
		if diff := loaded.Demand[i] - orig.Demand[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("sample %d: %v vs %v", i, loaded.Demand[i], orig.Demand[i])
		}
	}
}

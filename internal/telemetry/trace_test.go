package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestDecisionSinkJSONL(t *testing.T) {
	var b strings.Builder
	s := NewDecisionSink(&b)
	s.Emit(&Decision{
		T:      4,
		Policy: "SprintCon",
		Mode:   "normal",
		Alloc:  &AllocDecision{PCbW: 4000, PBatchW: 2600, ReserveW: 700, DeadlineFloorW: 1900, HeadroomUtil: 0.8, DeadlineUrgency: 0.6, Updated: true},
		MPC:    &MPCDecision{PfbW: 2500, TargetW: 2600, RefTrajW: []F{2586, 2597}, RWeights: []float64{1, 0.5}, FreqsGHz: []F{2, 1.6}, ClampedHi: 1, QPSweeps: 3, QPConverged: true, KWPerGHz: 10},
		Guard:  &GuardVerdict{Confidence: 1},
		UPS:    &UPSDecision{RequestW: 850, SoC: 0.9},
	})
	s.Emit(&Decision{T: 8, Policy: "SprintCon", Mode: "normal"})
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines int
	for sc.Scan() {
		lines++
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if d.Policy != "SprintCon" {
			t.Fatalf("line %d policy = %q", lines, d.Policy)
		}
	}
	if lines != 2 {
		t.Fatalf("lines = %d, want 2", lines)
	}

	// Round-trip preserves the nested sections.
	var d Decision
	first, _, _ := strings.Cut(b.String(), "\n")
	if err := json.Unmarshal([]byte(first), &d); err != nil {
		t.Fatal(err)
	}
	if d.Alloc == nil || d.Alloc.PCbW != 4000 || !d.Alloc.Updated {
		t.Fatalf("alloc section mangled: %+v", d.Alloc)
	}
	if d.MPC == nil || d.MPC.QPSweeps != 3 || d.MPC.ClampedHi != 1 {
		t.Fatalf("mpc section mangled: %+v", d.MPC)
	}
	if d.UPS == nil || d.UPS.RequestW != 850 {
		t.Fatalf("ups section mangled: %+v", d.UPS)
	}
}

func TestDecisionSinkNil(t *testing.T) {
	var s *DecisionSink
	s.Emit(&Decision{T: 1}) // must not panic
	if s.Count() != 0 || s.Err() != nil {
		t.Fatal("nil sink must read zero")
	}
}

// failWriter errors after the first write.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestDecisionSinkRetainsFirstError(t *testing.T) {
	s := NewDecisionSink(&failWriter{})
	s.Emit(&Decision{T: 1})
	s.Emit(&Decision{T: 2})
	s.Emit(&Decision{T: 3})
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1 (writes after the error must be dropped)", s.Count())
	}
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "disk full") {
		t.Fatalf("err = %v, want disk full", s.Err())
	}
}

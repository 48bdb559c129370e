package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// F is a float64 that survives JSON: encoding/json rejects NaN and the
// infinities, but decision traces legitimately contain both — an
// uncontrolled CB budget is +Inf and the SGCT baselines keep no batch
// budget (NaN). NaN marshals as null; the infinities as "+Inf"/"-Inf"
// strings. UnmarshalJSON inverts all three, so traces round-trip.
type F float64

// MarshalJSON implements json.Marshaler.
func (f F) MarshalJSON() ([]byte, error) {
	return appendF(nil, float64(f)), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = F(math.NaN())
		return nil
	case `"+Inf"`:
		*f = F(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = F(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = F(v)
	return nil
}

// AppendFs appends vs to dst as F values.
func AppendFs(dst []F, vs []float64) []F {
	for _, v := range vs {
		dst = append(dst, F(v))
	}
	return dst
}

// Decision is one structured decision-trace record: everything a control
// period's actuation depended on, captured at the moment of the decision.
// Policies emit one record per control period (the SGCT baselines, whose
// control period is the simulation tick, emit one per tick); each renders
// as one JSON line (AppendDecision), the bytes encoding/json would write.
//
// Every field is deterministic for a seeded scenario: wall-clock timings
// are deliberately absent (they live in registry histograms), so two
// identical runs produce byte-identical traces and a golden file can pin
// the schema.
type Decision struct {
	// Schema is the decision-trace schema version. The sink stamps it with
	// DecisionSchemaVersion on emit, so replay diffing can refuse to
	// compare traces written under different schemas instead of silently
	// zero-filling fields the other side never wrote.
	Schema int `json:"schema_version"`
	// T is the simulation time of the decision in seconds.
	T float64 `json:"t"`
	// Policy is the deciding policy's name.
	Policy string `json:"policy"`
	// Mode is the supervisor mode (or schedule phase for baselines).
	Mode string `json:"mode,omitempty"`
	// Alloc, MPC, Guard and UPS are per-loop sections; a policy omits the
	// loops it does not run.
	Alloc *AllocDecision `json:"alloc,omitempty"`
	MPC   *MPCDecision   `json:"mpc,omitempty"`
	Guard *GuardVerdict  `json:"guard,omitempty"`
	UPS   *UPSDecision   `json:"ups,omitempty"`
}

// AllocDecision captures the power load allocator's inputs and outputs.
type AllocDecision struct {
	// PCbW and PBatchW are the chosen circuit-breaker and batch budgets
	// (+Inf for an uncontrolled CB, null for policies without a batch
	// budget — see F).
	PCbW    F `json:"pcb_w"`
	PBatchW F `json:"pbatch_w"`
	// ReserveW is the interactive power reserved out of the CB budget and
	// ShiftW the deadline shift added on top of the CB affordance.
	ReserveW float64 `json:"reserve_w"`
	ShiftW   float64 `json:"shift_w"`
	// DeadlineFloorW is the batch power the progress model says is needed
	// so every job still meets its deadline (allocator input, factor 1).
	DeadlineFloorW float64 `json:"deadline_floor_w"`
	// HeadroomUtil is the interactive power estimate over the CB headroom
	// left after the batch budget and idle share (allocator input,
	// factor 2): ≥ 1 means interactive demand saturates its reserve.
	HeadroomUtil float64 `json:"headroom_util"`
	// DeadlineUrgency is the largest per-job required frequency as a
	// fraction of peak: 1 means some job needs peak frequency from now to
	// its deadline, > 1 means a miss is already unavoidable at peak.
	DeadlineUrgency float64 `json:"deadline_urgency"`
	// Updated reports whether this period ran the P_batch adaptation.
	Updated bool `json:"updated"`
}

// MPCDecision captures one server-power-controller solve.
type MPCDecision struct {
	// PfbW is the Eq. (6) batch power feedback; TargetW the budget the
	// controller tracked. PfbW, RefTrajW and FreqsGHz are F: an
	// unhardened controller fed a lost power reading computes a NaN
	// feedback, which flows into the reference trajectory and the
	// commanded frequencies, and the record must still be written (as
	// null) rather than end the trace.
	PfbW    F       `json:"pfb_w"`
	TargetW float64 `json:"target_w"`
	// RefTrajW is the Eq. (7) reference trajectory over the prediction
	// horizon (absolute watts).
	RefTrajW []F `json:"ref_traj_w,omitempty"`
	// RWeights are the per-core urgency weights R_{i,j} fed to the cost.
	RWeights []float64 `json:"r_weights,omitempty"`
	// FreqsGHz are the commanded per-core frequencies after the solve.
	FreqsGHz []F `json:"freqs_ghz,omitempty"`
	// ClampedLo/ClampedHi count cores commanded at the frequency floor and
	// ceiling (active box constraints).
	ClampedLo int `json:"clamped_lo"`
	ClampedHi int `json:"clamped_hi"`
	// QPSweeps and QPConverged report the solver's effort and verdict:
	// its σ steps, each one O(n) pass (1 when the all-free σ solved it),
	// and whether the KKT residual met tolerance.
	QPSweeps    int  `json:"qp_sweeps"`
	QPConverged bool `json:"qp_converged"`
	// LockedCores counts cores excluded from the move set (stuck actuator
	// or offline server).
	LockedCores int `json:"locked_cores"`
	// KWPerGHz is the model slope in use (changes under online estimation).
	KWPerGHz float64 `json:"k_w_per_ghz"`
}

// GuardVerdict captures the measurement guard and watchdog state.
type GuardVerdict struct {
	// Confidence is the guard's measurement confidence in [0, 1].
	Confidence float64 `json:"confidence"`
	// Degraded reports overload suspension by the telemetry watchdog.
	Degraded bool `json:"degraded"`
	// RejectedTotal is the cumulative count of rejected samples.
	RejectedTotal float64 `json:"rejected_total"`
	// UPSFailed reports the UPS delivery watchdog's sticky verdict.
	UPSFailed bool `json:"ups_failed"`
}

// UPSDecision captures the UPS power controller's output.
type UPSDecision struct {
	// RequestW is the discharge request for the coming tick.
	RequestW float64 `json:"request_w"`
	// SoC is the battery state of charge the decision saw.
	SoC float64 `json:"soc"`
}

// DecisionSink takes one decision per control period: NewDecisionSink's
// sink writes each as a JSON line to an io.Writer, NewDecisionLogSink's
// keeps each in a DecisionLog for rendering when read. All methods are
// safe on a nil receiver, so policies emit unconditionally. The sink is
// safe for concurrent use; the first error (a write error, or a NaN or
// infinity in a plain float64 field, which JSON cannot carry) is retained
// and subsequent emissions are dropped.
type DecisionSink struct {
	mu  sync.Mutex
	w   io.Writer
	log *DecisionLog // set instead of w by NewDecisionLogSink
	buf []byte       // one record's bytes, reused across emissions
	n   int64
	err error
}

// NewDecisionSink returns a sink writing one JSON line per decision to w.
func NewDecisionSink(w io.Writer) *DecisionSink {
	return &DecisionSink{w: w}
}

// DecisionSchemaVersion is the current decision-record schema. Version 2
// added the schema_version field itself; traces predating it decode with
// Schema 0.
const DecisionSchemaVersion = 2

// Emit writes one decision as one Write call, or keeps it in the sink's
// log (no-op on a nil sink or after an error). The record's Schema field
// is stamped with DecisionSchemaVersion, so every policy's trace carries
// the version without each call site knowing it. Emit does not retain d:
// a policy may refill the same record every control period.
func (s *DecisionSink) Emit(d *Decision) {
	if s == nil || d == nil {
		return
	}
	d.Schema = DecisionSchemaVersion
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	var err error
	if s.log != nil {
		err = s.log.keep(d)
	} else {
		s.buf, err = AppendDecision(s.buf[:0], d)
		if err == nil {
			_, err = s.w.Write(s.buf)
		}
	}
	if err != nil {
		s.err = err
		return
	}
	s.n++
}

// Count returns the number of decisions written or kept (0 on nil).
func (s *DecisionSink) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write or encoding error, if any (nil on a nil
// sink).
func (s *DecisionSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadDecisions parses a JSONL decision trace (the -trace-jsonl output)
// back into records — the -replay path re-drives a run from a checkpoint
// and diffs its decisions against a recorded trace. Errors name the
// offending record.
func ReadDecisions(r io.Reader) ([]Decision, error) {
	dec := json.NewDecoder(r)
	var out []Decision
	for {
		var d Decision
		err := dec.Decode(&d)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: decision trace record %d: %w", len(out)+1, err)
		}
		out = append(out, d)
	}
}

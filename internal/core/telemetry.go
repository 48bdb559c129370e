package core

import (
	"math"

	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// coreMetrics holds SprintCon's registered instruments, resolved once in
// Start so the control path performs no registry lookups. The zero value
// (telemetry disabled) yields nil instruments whose methods no-op.
type coreMetrics struct {
	enabled bool
	// Server power controller.
	solveSeconds  *telemetry.Histogram // wall clock; never in the trace
	qpIterations  *telemetry.Histogram
	qpUnconverged *telemetry.Counter
	// Measurement guard / watchdogs.
	guardRejected *telemetry.Counter
	guardConf     *telemetry.Gauge
	lockedCores   *telemetry.Gauge
	// Allocator and supervisor.
	allocMoves *telemetry.Counter
	pcbW       *telemetry.Gauge
	pbatchW    *telemetry.Gauge
	reserveW   *telemetry.Gauge
	shiftW     *telemetry.Gauge
	modeNum    *telemetry.Gauge
	// UPS power controller.
	upsReqW *telemetry.Gauge
	// Safety-invariant supervisor.
	invBreaches *telemetry.Gauge
}

// qpSweepBuckets cover the σ search's effort range: 1 step when every
// coordinate is free, 2 to 8 when some are pinched, and room above for a
// search the breakpoint safeguard had to finish.
func qpSweepBuckets() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 7, 8, 16, 32}
}

func newCoreMetrics(r *telemetry.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		enabled: true,
		solveSeconds: r.Histogram("mpc_solve_seconds",
			"wall-clock time of one server power controller step (excluded from golden comparisons)",
			telemetry.DefTimeBuckets()),
		qpIterations: r.Histogram("qp_iterations",
			"QP σ steps per MPC solve (1 = the all-free σ solved it)",
			qpSweepBuckets()),
		qpUnconverged: r.Counter("qp_unconverged_total",
			"MPC solves whose KKT residual missed tolerance"),
		guardRejected: r.Counter("guard_rejected_samples_total",
			"power readings the measurement guard rejected"),
		guardConf: r.Gauge("guard_confidence",
			"measurement guard confidence in [0, 1]"),
		lockedCores: r.Gauge("watchdog_locked_cores",
			"batch cores excluded from the MPC move set (stuck or offline)"),
		allocMoves: r.Counter("alloc_budget_moves_total",
			"P_batch adaptation periods executed by the allocator"),
		pcbW:     r.Gauge("pcb_target_w", "effective circuit-breaker power budget"),
		pbatchW:  r.Gauge("pbatch_target_w", "batch power budget"),
		reserveW: r.Gauge("alloc_reserve_w", "interactive power reserved out of the CB budget"),
		shiftW:   r.Gauge("alloc_shift_w", "deadline shift on top of the CB affordance"),
		modeNum: r.Gauge("supervisor_mode",
			"supervisor mode (0 normal, 1 no-overload, 2 cb-only, 3 ended)"),
		upsReqW: r.Gauge("ups_request_w", "UPS discharge request for the coming tick"),
		invBreaches: r.Gauge("invariant_breaches",
			"cumulative safety-invariant breaches (CB margin + SoC floor + frequency bounds)"),
	}
}

// decisionRecord is the policy-owned decision-trace record and its
// sections, refilled every control period so tracing allocates nothing:
// serverPowerControl writes what the period saw and chose, completeDecision
// the rest once the UPS request is known. The sink does not retain it.
type decisionRecord struct {
	d     telemetry.Decision
	alloc telemetry.AllocDecision
	mpc   telemetry.MPCDecision
	guard telemetry.GuardVerdict
	ups   telemetry.UPSDecision
	// refTraj is the reference trajectory's scratch, copied into
	// mpc.RefTrajW.
	refTraj []float64
}

// completeDecision finishes the pending record with the values read at
// the end of Tick, where the UPS request is known.
func (s *SprintCon) completeDecision(upsReqW, socNow float64) *telemetry.Decision {
	r := &s.rec
	r.d.Mode = s.mode.String()
	r.alloc.PCbW = telemetry.F(s.curPCb)
	r.alloc.ReserveW = s.allocator.InteractiveReserveW()
	r.alloc.ShiftW = s.allocator.DeadlineShiftW()
	r.mpc.ClampedLo, r.mpc.ClampedHi = 0, 0
	for _, f := range r.mpc.FreqsGHz {
		if float64(f) <= s.fmin+1e-9 {
			r.mpc.ClampedLo++
		} else if float64(f) >= s.fmax-1e-9 {
			r.mpc.ClampedHi++
		}
	}
	r.mpc.KWPerGHz = s.kModel
	r.ups = telemetry.UPSDecision{RequestW: upsReqW, SoC: socNow}
	r.d.Alloc, r.d.MPC, r.d.UPS, r.d.Guard = &r.alloc, &r.mpc, &r.ups, nil
	if s.hd.enabled() {
		r.guard = telemetry.GuardVerdict{
			Confidence:    s.hd.guard.Confidence(),
			Degraded:      s.hd.degraded,
			RejectedTotal: s.tm.guardRejected.Value(),
			UPSFailed:     s.hd.upsFailed,
		}
		r.d.Guard = &r.guard
	}
	return &r.d
}

// headroomUtil is the allocator's factor-2 input as recorded in the trace:
// interactive power over the CB headroom left beside the batch budget and
// idle share. ≥ 1 means interactive demand saturates its reserve;
// uncontrolled (+Inf) CB budgets report 0.
func headroomUtil(pcb, pbatch, idleW, pInterEst float64) float64 {
	if math.IsInf(pcb, 1) {
		return 0
	}
	head := pcb - pbatch - idleW
	if head < 1 {
		head = 1
	}
	return pInterEst / head
}

// observeActuationMetrics refreshes the watchdog gauge after a control
// period (no-op when telemetry is disabled).
func (s *SprintCon) observeActuationMetrics(env *sim.Env) {
	if !s.tm.enabled || !s.hd.enabled() {
		return
	}
	s.tm.lockedCores.Set(float64(s.lockedCores(env)))
}

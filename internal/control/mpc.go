// Package control implements SprintCon's feedback controllers and their
// defensive instrumentation (paper Sections IV-C and V, DESIGN.md §6 and §8):
//
//   - MPC: the model-predictive server power controller that tracks the
//     batch power budget P_batch (W) by manipulating per-core DVFS
//     frequencies (GHz), minimizing the paper's Eq. (8) cost subject to the
//     Eq. (9) frequency bounds each control period T (s).
//   - UPSController: the UPS power controller that keeps the circuit
//     breaker's delivered power at P_cb (W) by setting the battery discharge
//     to cover the excess (feedforward plus integral trim).
//   - PI: a single-loop proportional-integral power controller, retained to
//     quantify what MPC buys (ablation A1 in DESIGN.md).
//   - MeasurementGuard: the hardening layer's plausibility filter for the
//     rack power monitor (DESIGN.md §8): dropout/freeze/spike detection with
//     last-known-good and model-decay fallback, driving a confidence signal.
//   - RLS: recursive-least-squares estimation of the power-model slope K
//     (W/GHz) from observed (ΔF, Δp) pairs, for the online-estimation
//     ablation (E13).
package control

import (
	"errors"
	"fmt"
	"math"

	"sprintcon/internal/mathx"
	"sprintcon/internal/qp"
)

// Fixed MPC tuning, used throughout the evaluation.
const (
	// predictionHorizon is L_p of Eq. (8); controlHorizon is L_c. Both
	// count control periods (dimensionless).
	predictionHorizon int = 4
	controlHorizon    int = 2
	// qWeight is the tracking-error weight Q (uniform over the horizon),
	// in cost per W² of tracking error.
	qWeight float64 = 1
	// rScale converts the dimensionless per-core R weights into the cost
	// function's units, balancing watts² of tracking error against GHz²
	// of control penalty.
	rScale float64 = 40
)

// MPCConfig parameterizes the server power controller.
type MPCConfig struct {
	// PeriodS is the control period T in seconds.
	PeriodS float64
	// RefTimeConstS is τ_r of the Eq. (7) reference trajectory in seconds:
	// larger values trade convergence speed for smaller overshoot
	// (Section V-B).
	RefTimeConstS float64
	// Cores is the number of batch cores the controller commands.
	Cores int
	// KWPerGHz is the design-model slope every batch core shares (paper
	// Eq. 1–4): the predicted change in batch power per GHz of one core,
	// in W/GHz.
	KWPerGHz float64
	// FMinGHz and FMaxGHz bound every core's frequency in GHz (Eq. 9).
	FMinGHz, FMaxGHz float64
	// FullHorizon replaces the paper's prediction simplification
	// ("the same operation will continue") with a receding-horizon
	// optimization over controlHorizon *distinct* moves, of which only the
	// first is actuated. Its QP separates by move (see Step), so the first
	// move solves a one-step problem of the same form.
	FullHorizon bool
}

// DefaultMPCConfig returns the tuning used throughout the evaluation for a
// rack of the given number of batch cores sharing one model slope (W/GHz).
// With the paper's constant-move prediction simplification, the closed loop
// closes roughly Σh·e_h/Σh² ≈ 40 % of the power gap per period, settling
// well within the allocator's 30 s period at the 4 s control period.
func DefaultMPCConfig(cores int, kWPerGHz float64) MPCConfig {
	return MPCConfig{
		PeriodS:       4,
		RefTimeConstS: 2,
		Cores:         cores,
		KWPerGHz:      kWPerGHz,
		FMinGHz:       0.4,
		FMaxGHz:       2.0,
	}
}

// Validate reports structural errors in the configuration.
func (c MPCConfig) Validate() error {
	switch {
	case c.PeriodS <= 0:
		return errors.New("control: PeriodS must be positive")
	case c.RefTimeConstS <= 0:
		return errors.New("control: RefTimeConstS must be positive")
	case c.Cores <= 0:
		return fmt.Errorf("control: Cores = %d must be positive", c.Cores)
	case !(c.KWPerGHz > 0):
		return fmt.Errorf("control: KWPerGHz = %g must be positive", c.KWPerGHz)
	case c.FMinGHz <= 0 || c.FMaxGHz <= c.FMinGHz:
		return errors.New("control: need 0 < FMin < FMax")
	}
	return nil
}

// MPC is the model-predictive server power controller. Control-wise it is
// stateless between periods: following the paper's formulation, each period
// solves a fresh constrained optimization from the latest feedback
// measurement (the receding-horizon principle). The one retained value,
// the last solve's diagnostics (LastSolve), informs only telemetry.
//
// An MPC instance owns preallocated solve buffers; after the first Step a
// steady-state solve performs no heap allocation. Instances are not safe
// for concurrent use.
type MPC struct {
	cfg  MPCConfig
	last SolveStats
	// approach[h−1] is the Eq. (7) reference trajectory's share of the
	// gap closed after h periods, 1 − e^{−h·T/τ_r}.
	approach [predictionHorizon]float64

	// Preallocated per-solve state (the zero-alloc tick contract,
	// DESIGN.md §10), one entry per core: the QP's D, g and box, and the
	// returned frequencies.
	d, g, lo, hi mathx.Vector
	next         []float64
	ws           *qp.Workspace
}

// SolveStats reports the diagnostics of the most recent Step, for the
// telemetry layer's qp_iterations histogram and the decision trace.
type SolveStats struct {
	// Sweeps is the QP solver's σ step count (qp.Result.Sweeps): 1 when
	// the all-free σ solved the problem outright.
	Sweeps int
	// Converged reports whether the KKT residual met tolerance.
	Converged bool
}

// LastSolve returns the diagnostics of the most recent Step (zero value
// before the first solve).
func (m *MPC) LastSolve() SolveStats { return m.last }

// ReferenceTrajectory returns the Eq. (7) reference trajectory in absolute
// watts over the prediction horizon: the exponential approach from the
// feedback power toward the target with time constant τ_r. The decision
// trace records it so an operator can see what the controller was steering
// toward, not just where it ended up. It appends the trajectory to dst and
// returns the extended slice; the hot path calls it only when a decision
// trace is attached.
func (m *MPC) ReferenceTrajectory(dst []float64, pfbW, pTargetW float64) []float64 {
	gap := pTargetW - pfbW
	for _, a := range m.approach {
		dst = append(dst, pfbW+gap*a)
	}
	return dst
}

// NewMPC returns a controller or an error for invalid configuration. All
// solve buffers are allocated here, once, so Step never allocates in steady
// state.
func NewMPC(cfg MPCConfig) (*MPC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cores
	m := &MPC{
		cfg:  cfg,
		d:    mathx.NewVector(n),
		g:    mathx.NewVector(n),
		lo:   mathx.NewVector(n),
		hi:   mathx.NewVector(n),
		next: make([]float64, n),
		ws:   qp.NewWorkspace(n),
	}
	for h := range m.approach {
		m.approach[h] = 1 - math.Exp(-float64(h+1)*cfg.PeriodS/cfg.RefTimeConstS)
	}
	return m, nil
}

// Step computes the next per-core frequencies.
//
//	pfbW      — Eq. (6) feedback estimate of current batch power (W)
//	pTargetW  — the power budget P_batch from the load allocator (W)
//	freqs     — current frequency of every batch core (GHz)
//	rweights  — per-core urgency weights R_{i,j} (Section V-B),
//	            dimensionless; larger weight pulls that core harder
//	            toward peak frequency
//
// Following the paper's prediction simplification ("assuming the same
// operation will continue in the following L_p control periods"), the move
// Δf is constant over the horizon, so Eq. (8) collapses to a box-constrained
// QP in Δf, solved exactly. With one slope k for every core its Hessian is
// diag(D) + C·11ᵀ:
//
//	H = Σ_{h=1..Lp} Q·h²·k²·11ᵀ + Σ_{m=1..Lc} m²·diag(R·RScale)
//	g = −Σ_{h=1..Lp} Q·h·e_h·k·1 + Σ_{m=1..Lc} m·diag(R·RScale)·(F − F_max)
//
// where e_h = p_r(t+h) − p_fb = (P_batch − p_fb)(1 − exp(−h·T/τ_r)) (Eq. 7).
//
// With FullHorizon the decision variables are the cumulative moves
// z_m = Δ_1 + … + Δ_m (m = 1..Lc), so the Eq. (9) bounds stay boxes on
// F + z_m, and prediction step h sees p_fb + k·1ᵀz_{min(h,Lc)}. Each
// prediction step's tracking term and each R penalty then reads one z_m
// only: the Hessian is block diagonal, one block per move, and the QP
// separates. The actuated move z_1 is the minimizer of its own block,
// which only prediction step 1 reads:
//
//	C = Q·k², D = RScale·R, g = −Q·e_1·k·1 + D·(F − F_max),
//
// so this ablation is one-step-ahead tracking with the control penalty,
// solved over n variables instead of n·Lc.
//
// The returned slice is owned by the controller and overwritten by the next
// Step; callers that retain frequencies across periods must copy it.
func (m *MPC) Step(pfbW, pTargetW float64, freqs, rweights []float64) ([]float64, error) {
	return m.StepLocked(pfbW, pTargetW, freqs, rweights, nil)
}

// StepLocked is Step with an exclusion mask: cores whose locked entry is
// true are removed from the move set (their move bounds collapse to zero),
// so the optimizer spreads the power correction over the cores whose DVFS
// actuators are known to respond. A nil mask locks nothing. This is how the
// hardened policy handles a stuck actuator: commanding it is pointless, and
// pretending its moves contribute power would misallocate the budget.
func (m *MPC) StepLocked(pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) ([]float64, error) {
	n := m.cfg.Cores
	if len(freqs) != n || len(rweights) != n {
		return nil, fmt.Errorf("control: Step got %d freqs and %d weights for %d cores", len(freqs), len(rweights), n)
	}
	if locked != nil && len(locked) != n {
		return nil, fmt.Errorf("control: Step got %d locked flags for %d cores", len(locked), n)
	}
	k := m.cfg.KWPerGHz
	gap := pTargetW - pfbW

	// track is the tracking term of every g[i]; dScale and gScale weigh
	// the per-core penalty R·RScale in D and in g.
	var c, track, dScale, gScale float64
	if m.cfg.FullHorizon {
		c = (qWeight * k) * k
		track = -(qWeight * (gap * m.approach[0])) * k
		dScale, gScale = 1, 1
	} else {
		var sumH2 float64
		for step := 1; step <= predictionHorizon; step++ {
			hf := float64(step)
			sumH2 += hf * hf
			track += float64((-qWeight * hf * (gap * m.approach[step-1])) * k)
		}
		c = (qWeight * sumH2 * k) * k
		for mv := 1; mv <= controlHorizon; mv++ {
			gScale += float64(mv)
			dScale += float64(mv) * float64(mv)
		}
	}
	for i := 0; i < n; i++ {
		r := rScale * math.Max(rweights[i], 1e-6)
		m.d[i] = dScale * r
		m.g[i] = track + float64(gScale*r*(freqs[i]-m.cfg.FMaxGHz))
		if locked != nil && locked[i] {
			m.lo[i], m.hi[i] = 0, 0 // no move for this core
			continue
		}
		m.lo[i] = m.cfg.FMinGHz - freqs[i]
		m.hi[i] = m.cfg.FMaxGHz - freqs[i]
	}

	res, err := qp.Solve(qp.Problem{C: c, D: m.d, G: m.g, Lo: m.lo, Hi: m.hi}, m.ws)
	if err != nil {
		return nil, fmt.Errorf("control: MPC QP: %w", err)
	}
	m.last = SolveStats{Sweeps: res.Sweeps, Converged: res.Converged}
	next := m.next
	for i := 0; i < n; i++ {
		next[i] = freqs[i] + res.X[i]
		// Guard against accumulation error; the QP bounds already
		// enforce this up to tolerance.
		if next[i] < m.cfg.FMinGHz {
			next[i] = m.cfg.FMinGHz
		} else if next[i] > m.cfg.FMaxGHz {
			next[i] = m.cfg.FMaxGHz
		}
	}
	return next, nil
}

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
	// KWPerGHz is the design-model slope per batch core (paper Eq. 1–4):
	// the predicted change in batch power per GHz of that core, in W/GHz.
	KWPerGHz []float64
	// FMinGHz and FMaxGHz bound every core's frequency in GHz (Eq. 9).
	FMinGHz, FMaxGHz float64
	// FullHorizon replaces the paper's prediction simplification
	// ("the same operation will continue") with a true receding-horizon
	// optimization over controlHorizon *distinct* moves. The cumulative
	// moves z_h = Σ_{i≤h} Δ_i substitute as decision variables, so the
	// Eq. (9) bounds stay simple boxes and the same QP solver applies;
	// only the first move is actuated.
	FullHorizon bool
}

// DefaultMPCConfig returns the tuning used throughout the evaluation for a
// rack with the given per-core model slopes (W/GHz).
// With the paper's constant-move prediction simplification, the closed loop
// closes roughly Σh·e_h/Σh² ≈ 40 % of the power gap per period, settling
// well within the allocator's 30 s period at the 4 s control period.
func DefaultMPCConfig(kWPerGHz []float64) MPCConfig {
	return MPCConfig{
		PeriodS:       4,
		RefTimeConstS: 2,
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
	case len(c.KWPerGHz) == 0:
		return errors.New("control: KWPerGHz must not be empty")
	case c.FMinGHz <= 0 || c.FMaxGHz <= c.FMinGHz:
		return errors.New("control: need 0 < FMin < FMax")
	}
	for i, k := range c.KWPerGHz {
		if k <= 0 {
			return fmt.Errorf("control: KWPerGHz[%d] = %g must be positive", i, k)
		}
	}
	return nil
}

// MPC is the model-predictive server power controller. Control-wise it is
// stateless between periods: following the paper's formulation, each period
// solves a fresh constrained optimization from the latest feedback
// measurement (the receding-horizon principle). The retained state never
// feeds back into control *decisions*: the last solve's diagnostics
// (LastSolve) inform only telemetry, and the warm-start cache only chooses
// where the QP's iteration starts, not where it converges.
//
// An MPC instance owns preallocated solve buffers; after the first Step a
// steady-state solve performs no heap allocation. Instances are not safe
// for concurrent use.
type MPC struct {
	cfg  MPCConfig
	last SolveStats

	// Preallocated per-solve state (the zero-alloc tick contract,
	// DESIGN.md §10). Sized n for the constant-move formulation and
	// n·controlHorizon for FullHorizon. The Hessian lives in offDiag, its
	// exact equal-off-diagonal form (qp.Problem.EqualOffDiag), when the
	// formulation is constant-move and every KWPerGHz entry has the same
	// bits; otherwise in the dense h. NewMPC chooses once, so KWPerGHz
	// must not change after it.
	h         *mathx.Matrix
	offDiag   *qp.EqualOffDiag
	g, lo, hi mathx.Vector
	next      []float64
	ws        *qp.Workspace

	// Warm-start cache: the previous period's QP solution and the locked
	// mask it was solved under. warmOK is false until the first solve and
	// whenever the mask changes.
	warmX    mathx.Vector
	warmMask []bool
	warmOK   bool
}

// SolveStats reports the diagnostics of the most recent Step, for the
// telemetry layer's qp_iterations histogram and the decision trace.
type SolveStats struct {
	// Sweeps is the QP solver's coordinate-descent sweep count (0 when
	// the unconstrained Cholesky shortcut was feasible).
	Sweeps int
	// Converged reports whether the KKT residual met tolerance.
	Converged bool
	// Objective is the QP objective at the solution.
	Objective float64
	// Warm reports whether the solve was seeded from the previous
	// period's solution.
	Warm bool
}

// LastSolve returns the diagnostics of the most recent Step (zero value
// before the first solve).
func (m *MPC) LastSolve() SolveStats { return m.last }

// ReferenceTrajectory returns the Eq. (7) reference trajectory in absolute
// watts over the prediction horizon: the exponential approach from the
// feedback power toward the target with time constant τ_r. The decision
// trace records it so an operator can see what the controller was steering
// toward, not just where it ended up. It allocates; the hot path calls it
// only when a decision trace is attached.
func (m *MPC) ReferenceTrajectory(pfbW, pTargetW float64) []float64 {
	out := make([]float64, predictionHorizon)
	gap := pTargetW - pfbW
	for h := 1; h <= predictionHorizon; h++ {
		out[h-1] = pfbW + gap*(1-math.Exp(-float64(h)*m.cfg.PeriodS/m.cfg.RefTimeConstS))
	}
	return out
}

// NewMPC returns a controller or an error for invalid configuration. All
// solve buffers are allocated here, once, so Step never allocates in steady
// state.
func NewMPC(cfg MPCConfig) (*MPC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.KWPerGHz)
	nv := n
	if cfg.FullHorizon {
		nv = n * controlHorizon
	}
	m := &MPC{
		cfg:      cfg,
		g:        mathx.NewVector(nv),
		lo:       mathx.NewVector(nv),
		hi:       mathx.NewVector(nv),
		next:     make([]float64, n),
		ws:       qp.NewWorkspace(nv),
		warmX:    mathx.NewVector(nv),
		warmMask: make([]bool, n),
	}
	dense := cfg.FullHorizon
	for _, k := range cfg.KWPerGHz {
		dense = dense || math.Float64bits(k) != math.Float64bits(cfg.KWPerGHz[0])
	}
	if dense {
		m.h = mathx.NewMatrix(nv, nv)
	} else {
		m.offDiag = &qp.EqualOffDiag{D: mathx.NewVector(n)}
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
// QP in Δf, solved exactly.
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
	n := len(m.cfg.KWPerGHz)
	if len(freqs) != n || len(rweights) != n {
		return nil, fmt.Errorf("control: Step got %d freqs and %d weights for %d cores", len(freqs), len(rweights), n)
	}
	if locked != nil && len(locked) != n {
		return nil, fmt.Errorf("control: Step got %d locked flags for %d cores", len(locked), n)
	}
	if m.cfg.FullHorizon {
		return m.stepFullHorizon(pfbW, pTargetW, freqs, rweights, locked)
	}
	k := mathx.Vector(m.cfg.KWPerGHz)

	// H = Σ_{h=1..Lp} Q·h²·kkᵀ + Σ_{m=1..Lc} m²·diag(R·RScale)
	// g = −Σ_{h=1..Lp} Q·h·e_h·k + Σ_{m=1..Lc} m·diag(R·RScale)·d
	// where e_h = p_r(t+h) − p_fb = (P_batch − p_fb)(1 − exp(−h·T/τ_r))
	// (Eq. 7) and d = F − F_max (how far below peak each core sits).
	// When every core shares one slope k, every off-diagonal entry of H is
	// the same float64 (Q·Σh²·k)·k, so offDiag states H exactly and no
	// dense H is built.
	g := m.g
	for i := range g {
		g[i] = 0
	}
	var sumH2 float64
	gap := pTargetW - pfbW
	for step := 1; step <= predictionHorizon; step++ {
		hf := float64(step)
		sumH2 += hf * hf
		eh := gap * (1 - math.Exp(-hf*m.cfg.PeriodS/m.cfg.RefTimeConstS))
		g.AXPY(-qWeight*hf*eh, k)
	}
	alpha := qWeight * sumH2
	h, e := m.h, m.offDiag
	if e != nil {
		e.C = (alpha * k[0]) * k[0]
	} else {
		h.Zero()
		h.OuterAdd(alpha, k, k)
	}

	var sumM, sumM2 float64
	for mv := 1; mv <= controlHorizon; mv++ {
		sumM += float64(mv)
		sumM2 += float64(mv) * float64(mv)
	}
	for i := 0; i < n; i++ {
		r := rScale * math.Max(rweights[i], 1e-6)
		d := sumM2 * r
		if e != nil {
			e.D[i] = d
		} else {
			h.Inc(i, i, d)
		}
		g[i] += sumM * r * (freqs[i] - m.cfg.FMaxGHz)
	}

	lo, hi := m.lo, m.hi
	for i := 0; i < n; i++ {
		if locked != nil && locked[i] {
			lo[i], hi[i] = 0, 0 // no move for this core
			continue
		}
		lo[i] = m.cfg.FMinGHz - freqs[i]
		hi[i] = m.cfg.FMaxGHz - freqs[i]
	}

	res, err := m.solve(locked)
	if err != nil {
		return nil, fmt.Errorf("control: MPC QP: %w", err)
	}
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

// stepFullHorizon solves the receding-horizon problem with controlHorizon
// distinct moves. Decision variables are the cumulative moves
// z_h ∈ Rⁿ (h = 1..L_c); the predicted power at horizon step h is
// p_fb + K·z_{min(h,L_c)} and the Eq. (9) bounds apply to F + z_h.
func (m *MPC) stepFullHorizon(pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) ([]float64, error) {
	n := len(m.cfg.KWPerGHz)
	const lc = controlHorizon
	k := mathx.Vector(m.cfg.KWPerGHz)
	gap := pTargetW - pfbW

	h := m.h
	h.Zero()
	g := m.g
	for i := range g {
		g[i] = 0
	}

	// Tracking term: for each prediction step hp, the active block is
	// m(hp) = min(hp, Lc); accumulate Q·kkᵀ and −Q·e_hp·k there.
	var blockQ [lc + 1]float64 // Σ Q over steps mapped to block
	var blockE [lc + 1]float64 // Σ Q·e_hp over steps mapped to block
	for hp := 1; hp <= predictionHorizon; hp++ {
		blk := hp
		if blk > lc {
			blk = lc
		}
		e := gap * (1 - math.Exp(-float64(hp)*m.cfg.PeriodS/m.cfg.RefTimeConstS))
		blockQ[blk] += qWeight
		blockE[blk] += qWeight * e
	}
	for blk := 1; blk <= lc; blk++ {
		off := (blk - 1) * n
		for i := 0; i < n; i++ {
			gi := -blockE[blk] * k[i]
			g[off+i] += gi
			for j := 0; j < n; j++ {
				h.Inc(off+i, off+j, blockQ[blk]*k[i]*k[j])
			}
		}
	}

	// Control penalty: Σ_{h=1..Lc} ||F + z_h − F_max||²_R.
	for blk := 1; blk <= lc; blk++ {
		off := (blk - 1) * n
		for i := 0; i < n; i++ {
			r := rScale * math.Max(rweights[i], 1e-6)
			h.Inc(off+i, off+i, r)
			g[off+i] += r * (freqs[i] - m.cfg.FMaxGHz)
		}
	}

	lo, hi := m.lo, m.hi
	for blk := 0; blk < lc; blk++ {
		for i := 0; i < n; i++ {
			if locked != nil && locked[i] {
				lo[blk*n+i], hi[blk*n+i] = 0, 0 // excluded from the move set
				continue
			}
			lo[blk*n+i] = m.cfg.FMinGHz - freqs[i]
			hi[blk*n+i] = m.cfg.FMaxGHz - freqs[i]
		}
	}

	res, err := m.solve(locked)
	if err != nil {
		return nil, fmt.Errorf("control: full-horizon MPC QP: %w", err)
	}
	next := m.next
	for i := 0; i < n; i++ {
		next[i] = freqs[i] + res.X[i] // first cumulative move z_1
		if next[i] < m.cfg.FMinGHz {
			next[i] = m.cfg.FMinGHz
		} else if next[i] > m.cfg.FMaxGHz {
			next[i] = m.cfg.FMaxGHz
		}
	}
	return next, nil
}

// solve runs the QP over the prepared Hessian (h or offDiag) and g/lo/hi
// buffers and refreshes the warm-start cache and LastSolve stats. Each
// period's QP is seeded with the previous period's solution (the receding-horizon problems differ only by
// the measured gap and the shifted bounds, so the previous minimizer — and
// its active bound set — is almost exactly right). The cache is invalidated
// whenever the locked-core mask changes — a stuck actuator being excluded,
// a probe rejoining, a server crashing — and it dies with the controller, so
// a core-set change or a model rebuild (online estimation) always re-solves
// cold. A warm solve converges to the same minimizer within the QP's KKT
// tolerance; see the warm-vs-cold equivalence test in the qp package.
func (m *MPC) solve(locked []bool) (qp.Result, error) {
	opt := qp.Options{Ws: m.ws}
	warm := false
	if m.warmOK && maskUnchanged(m.warmMask, locked) {
		opt.Warm = m.warmX
		warm = true
	}
	res, err := qp.Solve(qp.Problem{H: m.h, EqualOffDiag: m.offDiag, G: m.g, Lo: m.lo, Hi: m.hi}, opt)
	if err != nil {
		m.warmOK = false
		return res, err
	}
	copy(m.warmX, res.X)
	for i := range m.warmMask {
		m.warmMask[i] = locked != nil && locked[i]
	}
	m.warmOK = true
	m.last = SolveStats{Sweeps: res.Sweeps, Converged: res.Converged, Objective: res.Objective, Warm: warm}
	return res, nil
}

// maskUnchanged reports whether the cached mask equals the requested one
// (nil meaning all-unlocked).
func maskUnchanged(cached []bool, locked []bool) bool {
	for i, c := range cached {
		l := locked != nil && locked[i]
		if c != l {
			return false
		}
	}
	return true
}

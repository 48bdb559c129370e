package control

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
	"sprintcon/internal/qp"
)

// denseMPC is the constant-move MPC with a dense Hessian, kept as the
// reference the equal-off-diagonal path is checked against: it assembles H
// as a zeroed matrix plus α·k·kᵀ plus the diagonal penalty, and keeps the
// same warm-start cache as MPC.
type denseMPC struct {
	cfg      MPCConfig
	ws       *qp.Workspace
	warmX    mathx.Vector
	warmMask []bool
	warmOK   bool
}

func newDenseMPC(cfg MPCConfig) *denseMPC {
	n := len(cfg.KWPerGHz)
	return &denseMPC{cfg: cfg, ws: qp.NewWorkspace(n), warmX: mathx.NewVector(n), warmMask: make([]bool, n)}
}

func (m *denseMPC) step(pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) ([]float64, SolveStats) {
	c := m.cfg
	n := len(c.KWPerGHz)
	k := mathx.Vector(c.KWPerGHz)
	h, g := mathx.NewMatrix(n, n), mathx.NewVector(n)
	var sumH2 float64
	gap := pTargetW - pfbW
	for step := 1; step <= predictionHorizon; step++ {
		hf := float64(step)
		sumH2 += hf * hf
		eh := gap * (1 - math.Exp(-hf*c.PeriodS/c.RefTimeConstS))
		g.AXPY(-qWeight*hf*eh, k)
	}
	h.OuterAdd(qWeight*sumH2, k, k)
	var sumM, sumM2 float64
	for mv := 1; mv <= controlHorizon; mv++ {
		sumM += float64(mv)
		sumM2 += float64(mv) * float64(mv)
	}
	lo, hi := mathx.NewVector(n), mathx.NewVector(n)
	for i := 0; i < n; i++ {
		r := rScale * math.Max(rweights[i], 1e-6)
		d := sumM2 * r
		h.Inc(i, i, d)
		g[i] += sumM * r * (freqs[i] - c.FMaxGHz)
		if locked == nil || !locked[i] {
			lo[i], hi[i] = c.FMinGHz-freqs[i], c.FMaxGHz-freqs[i]
		}
	}
	opt := qp.Options{Ws: m.ws}
	warm := m.warmOK && maskUnchanged(m.warmMask, locked)
	if warm {
		opt.Warm = m.warmX
	}
	res, err := qp.Solve(qp.Problem{H: h, G: g, Lo: lo, Hi: hi}, opt)
	if err != nil {
		panic(err)
	}
	copy(m.warmX, res.X)
	for i := range m.warmMask {
		m.warmMask[i] = locked != nil && locked[i]
	}
	m.warmOK = true
	next := make([]float64, n)
	for i := range next {
		next[i] = math.Min(math.Max(freqs[i]+res.X[i], c.FMinGHz), c.FMaxGHz)
	}
	return next, SolveStats{Sweeps: res.Sweeps, Converged: res.Converged, Objective: res.Objective, Warm: warm}
}

// Over generated control sequences — feedback and target powers, current
// frequencies, floored and unfloored R weights, and locked masks that come
// and go — the equal-off-diagonal StepLocked returns the same frequency
// bits and solve stats as the dense reference, period after period.
func TestMPCEqualOffDiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 7, 16, 64} {
		k := 6 + 6*rng.Float64()
		cfg := DefaultMPCConfig(uniformK(n, k))
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.offDiag == nil || m.h != nil {
			t.Fatalf("n=%d: uniform slopes did not select the equal-off-diagonal path", n)
		}
		ref := newDenseMPC(cfg)
		freqs, rw := make([]float64, n), make([]float64, n)
		for i := range freqs {
			freqs[i] = cfg.FMinGHz + (cfg.FMaxGHz-cfg.FMinGHz)*rng.Float64()
		}
		var locked []bool
		for step := 0; step < 60; step++ {
			for i := range rw {
				rw[i] = math.Pow(10, -2+4*rng.Float64())
				if rng.Float64() < 0.2 {
					rw[i] = 0
				}
			}
			if rng.Float64() < 0.15 {
				locked = nil
				if rng.Float64() < 0.6 {
					locked = make([]bool, n)
					for i := range locked {
						locked[i] = rng.Float64() < 0.15
					}
				}
			}
			pMax := float64(n) * k * cfg.FMaxGHz
			pfb := pMax * rng.Float64()
			target := pfb + pMax*(rng.Float64()-0.5)*math.Pow(10, -2+2*rng.Float64())
			want, wantStats := ref.step(pfb, target, freqs, rw, locked)
			got, err := m.StepLocked(pfb, target, freqs, rw, locked)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d step %d: core %d at %v GHz, dense reference %v", n, step, i, got[i], want[i])
				}
			}
			st := m.LastSolve()
			if st.Sweeps != wantStats.Sweeps || st.Converged != wantStats.Converged || st.Warm != wantStats.Warm ||
				math.Float64bits(st.Objective) != math.Float64bits(wantStats.Objective) {
				t.Fatalf("n=%d step %d: stats %+v, dense reference %+v", n, step, st, wantStats)
			}
			copy(freqs, got)
		}
	}
}

// Slopes that differ in any bit, and the full-horizon formulation, keep the
// dense Hessian.
func TestMPCDensePathSelection(t *testing.T) {
	k := uniformK(4, 9.6)
	k[2] = math.Nextafter(9.6, 10)
	full := DefaultMPCConfig(uniformK(4, 9.6))
	full.FullHorizon = true
	for name, cfg := range map[string]MPCConfig{
		"one-ulp slope": DefaultMPCConfig(k),
		"heterogeneous": DefaultMPCConfig([]float64{10, 20}),
		"full horizon":  full,
	} {
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.offDiag != nil || m.h == nil {
			t.Errorf("%s: did not keep the dense Hessian", name)
		}
	}
}

package control

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/mathx"
)

// denseStep is the constant-move MPC with a dense Hessian, kept as the
// reference the O(n) path is checked against: it assembles H as a zeroed
// matrix plus α·k·kᵀ plus the diagonal penalty and solves the QP with the
// dense active-set reference. It returns the next frequencies, clamped to
// [FMin, FMax] as Step clamps them.
func denseStep(c MPCConfig, pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) []float64 {
	n, k := c.Cores, c.KWPerGHz
	h, g := make([]float64, n*n), mathx.NewVector(n)
	var sumH2 float64
	gap := pTargetW - pfbW
	for step := 1; step <= predictionHorizon; step++ {
		hf := float64(step)
		sumH2 += hf * hf
		eh := gap * (1 - math.Exp(-hf*c.PeriodS/c.RefTimeConstS))
		for i := range g {
			g[i] += -qWeight * hf * eh * k
		}
	}
	for i := range h {
		h[i] += (qWeight * sumH2 * k) * k
	}
	var sumM, sumM2 float64
	for mv := 1; mv <= controlHorizon; mv++ {
		sumM += float64(mv)
		sumM2 += float64(mv) * float64(mv)
	}
	lo, hi := mathx.NewVector(n), mathx.NewVector(n)
	for i := 0; i < n; i++ {
		r := rScale * math.Max(rweights[i], 1e-6)
		h[i*n+i] += sumM2 * r
		g[i] += sumM * r * (freqs[i] - c.FMaxGHz)
		if locked == nil || !locked[i] {
			lo[i], hi[i] = c.FMinGHz-freqs[i], c.FMaxGHz-freqs[i]
		}
	}
	x, ok := denseSolve(h, g, lo, hi)
	if !ok {
		panic("control: dense reference did not converge")
	}
	next := make([]float64, n)
	for i := range next {
		next[i] = math.Min(math.Max(freqs[i]+x[i], c.FMinGHz), c.FMaxGHz)
	}
	return next
}

// denseStepFullHorizon is the full-horizon MPC as it was solved before its
// QP was reduced to the first move: all controlHorizon cumulative moves
// z_m ∈ Rⁿ as decision variables, the tracking term of prediction step h
// on z_{min(h,Lc)}, and one dense n·Lc-variable QP. It returns the next
// frequencies from z_1, clamped to [FMin, FMax].
func denseStepFullHorizon(c MPCConfig, pfbW, pTargetW float64, freqs, rweights []float64, locked []bool) []float64 {
	n, k := c.Cores, c.KWPerGHz
	const lc = controlHorizon
	nv := n * lc
	h, g := make([]float64, nv*nv), mathx.NewVector(nv)
	gap := pTargetW - pfbW
	var blockQ, blockE [lc + 1]float64
	for hp := 1; hp <= predictionHorizon; hp++ {
		blk := min(hp, lc)
		e := gap * (1 - math.Exp(-float64(hp)*c.PeriodS/c.RefTimeConstS))
		blockQ[blk] += qWeight
		blockE[blk] += qWeight * e
	}
	for blk := 1; blk <= lc; blk++ {
		off := (blk - 1) * n
		for i := 0; i < n; i++ {
			g[off+i] += -blockE[blk] * k
			for j := 0; j < n; j++ {
				h[(off+i)*nv+off+j] += blockQ[blk] * k * k
			}
		}
	}
	lo, hi := mathx.NewVector(nv), mathx.NewVector(nv)
	for blk := 1; blk <= lc; blk++ {
		off := (blk - 1) * n
		for i := 0; i < n; i++ {
			r := rScale * math.Max(rweights[i], 1e-6)
			h[(off+i)*nv+off+i] += r
			g[off+i] += r * (freqs[i] - c.FMaxGHz)
			if locked == nil || !locked[i] {
				lo[off+i], hi[off+i] = c.FMinGHz-freqs[i], c.FMaxGHz-freqs[i]
			}
		}
	}
	z, ok := denseSolve(h, g, lo, hi)
	if !ok {
		panic("control: dense full-horizon reference did not converge")
	}
	next := make([]float64, n)
	for i := range next {
		next[i] = math.Min(math.Max(freqs[i]+z[i], c.FMinGHz), c.FMaxGHz)
	}
	return next
}

// mpcCase draws one control period for an n-core rack with slope k: current
// frequencies in [FMin, FMax], R weights log-uniform over [0.01, 100] (the
// range workload.BatchJob.RWeight produces) with a floorFrac share at 0,
// the 1e-6 floor, a third of the cases with locked cores, and feedback and
// target powers whose gap spans two decades of the rack's peak batch power.
func mpcCase(rng *rand.Rand, n int, k, floorFrac float64) (pfb, target float64, freqs, rw []float64, locked []bool) {
	freqs, rw = make([]float64, n), make([]float64, n)
	for i := range freqs {
		freqs[i] = 0.4 + 1.6*rng.Float64()
		rw[i] = math.Pow(10, -2+4*rng.Float64())
		if rng.Float64() < floorFrac {
			rw[i] = 0
		}
	}
	if rng.Intn(3) == 0 {
		locked = make([]bool, n)
		for i := range locked {
			locked[i] = rng.Float64() < 0.2
		}
	}
	pMax := float64(n) * k * 2
	pfb = pMax * rng.Float64()
	target = pfb + pMax*(rng.Float64()-0.5)*math.Pow(10, -2+2*rng.Float64())
	return pfb, target, freqs, rw, locked
}

// Over generated control periods of one controller per rack size, the O(n)
// StepLocked agrees with the dense reference: every frequency is within the
// qp oracle's bound
// δ = 16·n·κ̂·ε·(1 + ‖Δf‖∞), κ̂ = (max D + C·n)/min D, of the reference
// (clamping to [FMin, FMax] moves neither answer further apart), and the
// solve converges.
func TestMPCEqualOffDiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 2, 7, 16, 64} {
		k := 6 + 6*rng.Float64()
		cfg := DefaultMPCConfig(n, k)
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			pfb, target, freqs, rw, locked := mpcCase(rng, n, k, 0.2)
			want := denseStep(cfg, pfb, target, freqs, rw, locked)
			got, err := m.StepLocked(pfb, target, freqs, rw, locked)
			if err != nil {
				t.Fatal(err)
			}
			minD, maxD := math.Inf(1), 0.0
			for _, d := range m.d {
				minD, maxD = math.Min(minD, d), math.Max(maxD, d)
			}
			var move float64
			for i := range want {
				move = math.Max(move, math.Abs(want[i]-freqs[i]))
			}
			c := (qWeight * 30 * k) * k
			delta := 16 * float64(n) * (maxD + c*float64(n)) / minD * 0x1p-53 * (1 + move)
			for i := range got {
				if d := math.Abs(got[i] - want[i]); !(d <= delta) {
					t.Fatalf("n=%d step %d: core %d at %v GHz, dense reference %v (|Δ| %g > δ %g)", n, step, i, got[i], want[i], d, delta)
				}
			}
			if st := m.LastSolve(); !st.Converged {
				t.Fatalf("n=%d step %d: %+v", n, step, st)
			}
		}
	}
}

// The full-horizon move the MPC actuates, solved as its own n-variable
// block, matches the first move of the dense n·Lc-variable QP it was solved
// as before, within 1e-9 GHz, over 2000 generated control periods
// (n = 1…64, k ∈ [1, 40] W/GHz, a third with locked cores). With R weights
// at their 1e-6 floor H's condition number reaches 10⁹, where no float64
// solve is accurate to 1e-9 GHz; TestMPCEqualOffDiagMatchesDense covers
// those against a bound that scales with it.
func TestFullHorizonMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var worst float64
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(64)
		k := 1 + 39*rng.Float64()
		pfb, target, freqs, rw, locked := mpcCase(rng, n, k, 0)
		cfg := DefaultMPCConfig(n, k)
		cfg.FullHorizon = true
		m, err := NewMPC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := denseStepFullHorizon(cfg, pfb, target, freqs, rw, locked)
		got, err := m.StepLocked(pfb, target, freqs, rw, locked)
		if err != nil {
			t.Fatal(err)
		}
		if !m.LastSolve().Converged {
			t.Fatalf("trial %d (n=%d): %+v", trial, n, m.LastSolve())
		}
		for i := range got {
			d := math.Abs(got[i] - want[i])
			if !(d <= 1e-9) {
				t.Fatalf("trial %d (n=%d): core %d at %v GHz, dense reference %v (|Δ| %g)", trial, n, i, got[i], want[i], d)
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("worst |Δf| = %.3g GHz", worst)
}

// A 16-core rack with one core locked (a stuck actuator) converges on every
// period, within the solver's step bound: the locked core's gradient is no
// KKT violation, and the core does not move.
func TestStepLockedCoreConverges(t *testing.T) {
	const n = 16
	m, err := NewMPC(DefaultMPCConfig(n, 18.75))
	if err != nil {
		t.Fatal(err)
	}
	freqs, rw, locked := make([]float64, n), ones(n), make([]bool, n)
	for i := range freqs {
		freqs[i] = 1.2
	}
	locked[3] = true
	for period := 0; period < 3; period++ {
		next, err := m.StepLocked(600, 900, freqs, rw, locked)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.LastSolve(); !st.Converged || st.Sweeps >= 10 {
			t.Fatalf("period %d: %+v, want converged in under 10 sweeps", period, st)
		}
		if next[3] != freqs[3] {
			t.Fatalf("period %d: locked core moved from %v to %v GHz", period, freqs[3], next[3])
		}
		copy(freqs, next)
	}
}

package rack

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkRackTick times one plant tick of the paper's rack in the order
// the simulation runs it: interactive demand with jitter, interactive
// cores held at peak, a new batch command every 4th tick (a 4 s control
// period over a 1 s tick) with MPC-like values between P-states, the batch
// jobs' progress, and the noisy power reading.
func BenchmarkRackTick(b *testing.B) {
	cfg := DefaultConfig()
	jobs := testJobs(b, cfg, due900)
	for i := range jobs {
		j := &jobs[i]
		j.ScaleWork((0.5 + 0.5*math.Mod(float64(i)*0.6180339887498949, 1)) * 600 / j.Spec.PeakSeconds)
	}
	r, err := New(cfg, jobs)
	if err != nil {
		b.Fatal(err)
	}
	const periods = 64
	rng := rand.New(rand.NewSource(1))
	cmds := make([][]float64, periods)
	for p := range cmds {
		cmds[p] = make([]float64, len(r.BatchCores()))
		for i := range cmds[p] {
			cmds[p][i] = 0.8 + 1.1*rng.Float64()
		}
	}
	applied := make([]float64, len(r.BatchCores()))
	fmax := r.cfg.ServerParams.PStates.Max()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		now := float64(k)
		r.ApplyInteractiveDemand(0.55 + 0.1*math.Sin(now/60))
		r.SetInteractiveFreq(fmax)
		if k%4 == 0 {
			if _, err := r.SetBatchFreqsInto(cmds[(k/4)%periods], applied); err != nil {
				b.Fatal(err)
			}
		}
		r.AdvanceBatch(1, now)
		sink += r.Measure(r.TruePower())
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN power")
	}
}

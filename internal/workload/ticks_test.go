package workload

import (
	"math"
	"math/rand"
	"testing"
)

func jobStateEqual(a, b *BatchJob) bool {
	return math.Float64bits(a.remaining) == math.Float64bits(b.remaining) &&
		math.Float64bits(a.execSecs) == math.Float64bits(b.execSecs) &&
		math.Float64bits(a.doneAt) == math.Float64bits(b.doneAt) &&
		a.completed == b.completed
}

// AdvanceTicks must be bit-identical to the equivalent sequence of Advance
// calls for every spec shape (single-phase, multi-phase), frequency, and
// chunking — including completions and re-execution wraps inside a chunk.
func TestAdvanceTicksMatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range SpecCPU2006() {
		for _, f := range []float64{0.25, 0.4, 0.55, 1.0} {
			ja, err := NewBatchJob(spec, 0, 720)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := NewBatchJob(spec, 0, 720)
			if err != nil {
				t.Fatal(err)
			}
			ja.ScaleWork(0.4 * 720 / spec.PeakSeconds)
			jb.ScaleWork(0.4 * 720 / spec.PeakSeconds)
			const dt, fmax = 1.0, 1.0
			step := 0
			// Push far past one completion so wraps are exercised.
			for step < 4000 {
				n := 1 + rng.Intn(600)
				ja.AdvanceTicks(f, fmax, dt, float64(step)*dt, n)
				for k := 0; k < n; k++ {
					jb.Advance(f, fmax, dt, float64(step+k)*dt)
				}
				step += n
				if !jobStateEqual(&ja, &jb) {
					t.Fatalf("%s f=%g: state diverged at step %d:\n ticks: rem=%x exec=%x done=%x comp=%d\n loop:  rem=%x exec=%x done=%x comp=%d",
						spec.Name, f, step,
						math.Float64bits(ja.remaining), math.Float64bits(ja.execSecs), math.Float64bits(ja.doneAt), ja.completed,
						math.Float64bits(jb.remaining), math.Float64bits(jb.execSecs), math.Float64bits(jb.doneAt), jb.completed)
				}
			}
			if ja.completed == 0 {
				t.Fatalf("%s f=%g: job never completed; test did not exercise wraps", spec.Name, f)
			}
		}
	}
}

// At f = 0 no work progresses; AdvanceTicks must still accrue wall time
// exactly like Advance.
func TestAdvanceTicksZeroFrequency(t *testing.T) {
	spec := SpecCPU2006()[0]
	ja, _ := NewBatchJob(spec, 0, 720)
	jb, _ := NewBatchJob(spec, 0, 720)
	ja.AdvanceTicks(0, 1, 1, 0, 50)
	for k := 0; k < 50; k++ {
		jb.Advance(0, 1, 1, float64(k))
	}
	if !jobStateEqual(&ja, &jb) {
		t.Fatal("zero-frequency tick replay diverged from Advance")
	}
}

// StableTicks must be sound: CurrentUtil may not change within the reported
// horizon under constant-frequency execution.
func TestStableTicksSound(t *testing.T) {
	for _, spec := range SpecCPU2006() {
		j, err := NewBatchJob(spec, 0, 720)
		if err != nil {
			t.Fatal(err)
		}
		const f, fmax, dt = 0.6, 1.0, 1.0
		for step := 0; step < 1200; step++ {
			n := j.StableTicks(f, fmax, dt)
			if n > 1200-step {
				n = 1200 - step
			}
			u0 := j.CurrentUtil()
			for k := 0; k < n; k++ {
				j.Advance(f, fmax, dt, float64(step+k)*dt)
				if u := j.CurrentUtil(); u != u0 {
					t.Fatalf("%s: util changed at tick %d of a %d-tick stable horizon (%.4f → %.4f)",
						spec.Name, k, n, u0, u)
				}
			}
			step += n
			j.Advance(f, fmax, dt, float64(step)*dt)
		}
	}
}

// Single-phase specs must report an unbounded stability horizon: their
// utilization never changes, even across re-execution wraps.
func TestStableTicksSinglePhaseUnbounded(t *testing.T) {
	for _, spec := range SteadyStateSpecs() {
		j, _ := NewBatchJob(spec, 0, 720)
		if n := j.StableTicks(0.5, 1, 1); n != math.MaxInt32 {
			t.Fatalf("%s: single-phase spec reported bounded horizon %d", spec.Name, n)
		}
	}
}

func TestSteadyStateSpecsAreSinglePhase(t *testing.T) {
	specs := SteadyStateSpecs()
	if len(specs) == 0 {
		t.Fatal("no steady-state specs")
	}
	for _, s := range specs {
		if len(s.Phases) > 1 {
			t.Fatalf("%s has %d phases", s.Name, len(s.Phases))
		}
	}
}

func TestSteppedDiurnal(t *testing.T) {
	tr, err := SteppedDiurnal([]float64{0.2, 0.8}, 10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{
		{0, 0.2}, {9, 0.2}, {10, 0.8}, {19, 0.8}, {20, 0.2}, {39, 0.8},
	} {
		if got := tr.At(c.t); got != c.want {
			t.Fatalf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if _, err := SteppedDiurnal(nil, 10, 40, 1); err == nil {
		t.Fatal("empty levels accepted")
	}
	if _, err := SteppedDiurnal([]float64{1.5}, 10, 40, 1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if _, err := SteppedDiurnal([]float64{0.5}, 0, 40, 1); err == nil {
		t.Fatal("zero plateau accepted")
	}
}

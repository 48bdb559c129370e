package obs

import (
	"math"
	"testing"
)

func TestWindowStatEviction(t *testing.T) {
	w := NewWindowStat(3, []float64{1, 2, 3})
	for _, v := range []float64{1, 2, 3} {
		w.Push(v)
	}
	if w.n != 3 || w.Mean() != 2 || w.Oldest() != 1 || w.Last() != 3 {
		t.Fatalf("full window wrong: len=%d mean=%v oldest=%v last=%v", w.n, w.Mean(), w.Oldest(), w.Last())
	}
	w.Push(10) // evicts the 1
	if w.n != 3 || w.Oldest() != 2 || w.Last() != 10 {
		t.Fatalf("eviction wrong: len=%d oldest=%v last=%v", w.n, w.Oldest(), w.Last())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean after eviction = %v, want 5", got)
	}
}

func TestWindowStatQuantile(t *testing.T) {
	w := NewWindowStat(10, []float64{1, 2, 3})
	for _, v := range []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.5} {
		w.Push(v)
	}
	// Nine samples in the ≤1 bucket, one in the ≤3 bucket: p50 resolves to
	// the first bucket's upper bound, p99 to the outlier's.
	if got := w.Quantile(0.50); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := w.Quantile(0.99); got != 3 {
		t.Fatalf("p99 = %v, want 3", got)
	}
	// A sample above every bound lands in the overflow bucket.
	for i := 0; i < 10; i++ {
		w.Push(99)
	}
	if got := w.Quantile(0.5); !math.IsInf(got, 1) {
		t.Fatalf("overflow quantile = %v, want +Inf", got)
	}
}

func TestWindowStatNaNAndEmpty(t *testing.T) {
	w := NewWindowStat(4, []float64{1})
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Last()) || !math.IsNaN(w.Quantile(0.5)) {
		t.Fatal("empty window must report NaN")
	}
	w.Push(math.NaN()) // dropped, not stored
	if w.n != 0 {
		t.Fatalf("NaN sample stored: len=%d", w.n)
	}
	var nilW *WindowStat
	nilW.Push(1)
	if !math.IsNaN(nilW.Mean()) {
		t.Fatal("nil window must no-op")
	}
}

func TestWindowStatSlope(t *testing.T) {
	w := NewWindowStat(5, []float64{1})
	w.Push(10)
	if !math.IsNaN(w.Slope()) {
		t.Fatal("single-sample slope must be NaN")
	}
	for _, v := range []float64{8, 6, 4, 2} {
		w.Push(v)
	}
	if got := w.Slope(); got != -2 {
		t.Fatalf("slope = %v, want -2", got)
	}
}

func TestWindowStatPushNoAlloc(t *testing.T) {
	w := NewWindowStat(HealthWindow, []float64{0.25, 0.5, 0.75})
	v := 0.1
	allocs := testing.AllocsPerRun(1000, func() {
		w.Push(v)
		v += 0.001
	})
	if allocs != 0 {
		t.Fatalf("Push allocates %v per call, want 0", allocs)
	}
}

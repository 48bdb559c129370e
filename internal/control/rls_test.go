package control

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewRLSValidation(t *testing.T) {
	if _, err := NewRLS(10, 0, 1, 20); err == nil {
		t.Fatal("zero lambda should error")
	}
	if _, err := NewRLS(10, 0.99, 20, 1); err == nil {
		t.Fatal("bad bounds should error")
	}
	if _, err := NewRLS(100, 0.99, 1, 20); err == nil {
		t.Fatal("k0 outside bounds should error")
	}
}

func TestRLSConvergesToTrueSlope(t *testing.T) {
	// True slope 9.6 W/GHz, start 3× off, noisy observations.
	r, err := NewRLS(28.8, 0.98, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const truth = 9.6
	for i := 0; i < 200; i++ {
		df := rng.NormFloat64() * 2
		dp := truth*df + rng.NormFloat64()*5
		r.Observe(df, dp, 0.05)
	}
	if math.Abs(r.K()-truth) > 1 {
		t.Fatalf("K = %v after 200 observations, want ≈%v", r.K(), truth)
	}
	if r.updates == 0 {
		t.Fatal("no updates recorded")
	}
}

func TestRLSTracksDrift(t *testing.T) {
	r, _ := NewRLS(9.6, 0.95, 1, 40)
	rng := rand.New(rand.NewSource(6))
	// Slope drifts from 9.6 to 15 (more batch cores activated).
	for i := 0; i < 300; i++ {
		truth := 9.6
		if i >= 100 {
			truth = 15
		}
		df := rng.NormFloat64() * 2
		r.Observe(df, truth*df+rng.NormFloat64()*3, 0.05)
	}
	if math.Abs(r.K()-15) > 1.5 {
		t.Fatalf("K = %v, want to have tracked the drift to 15", r.K())
	}
}

func TestRLSIgnoresWeakExcitation(t *testing.T) {
	r, _ := NewRLS(9.6, 0.98, 1, 40)
	for i := 0; i < 100; i++ {
		r.Observe(0.001, 50, 0.05) // tiny ΔF, big noise power
	}
	if r.updates != 0 || r.K() != 9.6 {
		t.Fatalf("weak excitation should be ignored: K=%v updates=%d", r.K(), r.updates)
	}
}

func TestRLSIgnoresNonFinite(t *testing.T) {
	r, _ := NewRLS(9.6, 0.98, 1, 40)
	r.Observe(math.NaN(), 1, 0.05)
	r.Observe(1, math.Inf(1), 0.05)
	if r.updates != 0 {
		t.Fatal("non-finite observations must be ignored")
	}
}

func TestRLSBoundsRespected(t *testing.T) {
	r, _ := NewRLS(9.6, 0.9, 5, 12)
	// Absurd observations pull toward a slope of 1000; bounds must hold.
	for i := 0; i < 50; i++ {
		r.Observe(1, 1000, 0.05)
	}
	if r.K() > 12 {
		t.Fatalf("K = %v escaped its upper bound", r.K())
	}
	for i := 0; i < 50; i++ {
		r.Observe(1, 0.1, 0.05)
	}
	if r.K() < 5 {
		t.Fatalf("K = %v escaped its lower bound", r.K())
	}
}

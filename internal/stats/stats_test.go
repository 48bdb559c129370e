package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
	if got := Std(xs); got != 2 {
		t.Fatalf("Std = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Fatalf("Percentile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if got, _ := Percentile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Fatalf("interpolated Percentile(0.9) = %v, want 4.6", got)
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := Percentile(xs, 1.5); err == nil {
		t.Fatal("out-of-range quantile should error")
	}
	if got, _ := Percentile([]float64{7}, 0.3); got != 7 {
		t.Fatal("single element percentile")
	}
	// Must not mutate the input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 0.5)
	if ys[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(16.0 / 3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestFracAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FracAbove(xs, 2); got != 0.5 {
		t.Fatalf("FracAbove = %v", got)
	}
	if FracAbove(nil, 0) != 0 {
		t.Fatal("empty FracAbove should be 0")
	}
}

func TestSettlingTime(t *testing.T) {
	xs := []float64{0, 5, 9, 10.5, 10.1, 9.9, 10.05}
	if got := SettlingTime(xs, 10, 0.5); got != 3 {
		t.Fatalf("SettlingTime = %v, want 3", got)
	}
	if got := SettlingTime([]float64{0, 1, 2}, 10, 0.5); got != -1 {
		t.Fatalf("never settles: %v", got)
	}
	// A late excursion resets the settling point.
	xs2 := []float64{10, 10, 15, 10}
	if got := SettlingTime(xs2, 10, 0.5); got != 3 {
		t.Fatalf("late excursion: %v, want 3", got)
	}
}

func TestOvershoot(t *testing.T) {
	// Step from 0 to 10, peak 12 → overshoot 20 %.
	xs := []float64{0, 6, 12, 10}
	if got := Overshoot(xs, 0, 10); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Overshoot = %v, want 0.2", got)
	}
	// Downward step from 10 to 0, trough −1 → 10 %.
	xs = []float64{10, 4, -1, 0}
	if got := Overshoot(xs, 10, 0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("downward Overshoot = %v, want 0.1", got)
	}
	if Overshoot(xs, 5, 5) != 0 {
		t.Fatal("zero step should be 0")
	}
	if Overshoot([]float64{1, 2, 3}, 0, 10) != 0 {
		t.Fatal("never crossing target should be 0")
	}
}

// Property: the p-quantile lies within [Min, Max] and is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw [9]float64, p1, p2 float64) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(v, 1e9)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		a := math.Mod(math.Abs(p1), 1)
		b := math.Mod(math.Abs(p2), 1)
		if a > b {
			a, b = b, a
		}
		qa, err1 := Percentile(xs, a)
		qb, err2 := Percentile(xs, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return qa <= qb+1e-9 && qa >= Min(xs)-1e-9 && qb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Min is Max's test-only counterpart, the lower bound the Percentile
// property is checked against.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

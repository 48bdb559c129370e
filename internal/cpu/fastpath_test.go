package cpu

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// setUtilRef is the utilization clamp as it was written before ClampUtil's
// inlined comparisons replaced it.
func setUtilRef(u float64) float64 { return math.Min(1, math.Max(0, u)) }

// utilInputs lists the clamp's edge cases: signed zeros and infinities,
// NaNs with several payloads and signs, subnormals, the neighbours of 0 and
// 1, and generated values across and beyond [0, 1].
func utilInputs() []float64 {
	in := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling
		math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF),
		math.Float64frombits(0xFFF4000000000123),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.Float64frombits(0x0010000000000000),
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), -1, math.Nextafter(-1, 0),
		math.Nextafter(0, 1), math.Nextafter(0, -1), 0.5, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 2000; k++ {
		in = append(in, 3*rng.NormFloat64(), rng.Float64(), math.Float64frombits(rng.Uint64()))
	}
	return in
}

// ClampUtil, which every utilization the rack stores passes through, must
// return exactly math.Min(1, math.Max(0, u)): +0 for −0, and math.NaN() for
// every NaN (amd64's math.Max returns that NaN; arm64's would pass the
// input's payload through, so there the NaN cases check the documented
// result only).
func TestSetUtilMatchesReference(t *testing.T) {
	nan := math.Float64bits(math.NaN())
	for _, u := range utilInputs() {
		got, want := math.Float64bits(ClampUtil(u)), math.Float64bits(setUtilRef(u))
		if math.IsNaN(u) {
			if got != nan {
				t.Fatalf("ClampUtil(%#x) = %#x, want math.NaN() %#x", math.Float64bits(u), got, nan)
			}
			if runtime.GOARCH != "amd64" {
				continue
			}
		}
		if got != want {
			t.Fatalf("ClampUtil(%#x) = %#x, reference %#x", math.Float64bits(u), got, want)
		}
	}
}

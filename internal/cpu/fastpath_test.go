package cpu

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// setUtilRef is SetUtil's clamp as it was written before the inlined
// comparisons replaced it.
func setUtilRef(u float64) float64 { return math.Min(1, math.Max(0, u)) }

// setFreqRef is SetFreq without the early return for an unchanged request.
func setFreqRef(c *CPU, i int, f float64) float64 {
	q := c.table.Quantize(f)
	c.freqs[i] = q
	return q
}

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

// SetUtil must store exactly math.Min(1, math.Max(0, u)): +0 for −0, and
// math.NaN() for every NaN (amd64's math.Max returns that NaN; arm64's
// would pass the input's payload through, so there the NaN cases check the
// documented result only).
func TestSetUtilMatchesReference(t *testing.T) {
	c, err := New(1, DefaultPStates())
	if err != nil {
		t.Fatal(err)
	}
	nan := math.Float64bits(math.NaN())
	for _, u := range utilInputs() {
		c.SetUtil(0, u)
		got, want := math.Float64bits(c.Util(0)), math.Float64bits(setUtilRef(u))
		if math.IsNaN(u) {
			if got != nan {
				t.Fatalf("SetUtil(%#x) stored %#x, want math.NaN() %#x", math.Float64bits(u), got, nan)
			}
			if runtime.GOARCH != "amd64" {
				continue
			}
		}
		if got != want {
			t.Fatalf("SetUtil(%#x) stored %#x, reference %#x", math.Float64bits(u), got, want)
		}
	}
}

// SetFreq must return and store what the reference does, from every table
// entry as the current frequency, for every entry, the values one ulp
// around each entry and midway between entries, and requests off the table.
func TestSetFreqMatchesReference(t *testing.T) {
	tab := DefaultPStates()
	fs := tab.Freqs()
	var req []float64
	for i, f := range fs {
		req = append(req, f, math.Nextafter(f, 0), math.Nextafter(f, 3))
		if i > 0 {
			mid := fs[i-1] + (f-fs[i-1])/2
			req = append(req, mid, math.Nextafter(mid, 0), math.Nextafter(mid, 3))
		}
	}
	req = append(req, 0, math.Copysign(0, -1), -1, 0.1, 2.5, math.Inf(1), math.Inf(-1), math.NaN())
	fast, _ := New(1, tab)
	ref, _ := New(1, tab)
	for _, cur := range fs {
		for _, f := range req {
			fast.freqs[0], ref.freqs[0] = cur, cur
			got, want := fast.SetFreq(0, f), setFreqRef(ref, 0, f)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(fast.Freq(0)) != math.Float64bits(ref.Freq(0)) {
				t.Fatalf("from %v, SetFreq(%v) = %v (core %v), reference %v (core %v)", cur, f, got, fast.Freq(0), want, ref.Freq(0))
			}
		}
	}
}

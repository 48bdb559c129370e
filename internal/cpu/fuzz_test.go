package cpu

import "testing"

// FuzzQuantize checks that any finite request maps to a table member with
// the round-to-nearest property, without panicking.
func FuzzQuantize(f *testing.F) {
	f.Add(1.23)
	f.Add(-5.0)
	f.Add(1e300)
	f.Fuzz(func(t *testing.T, in float64) {
		tab := DefaultPStates()
		q := tab.Quantize(in)
		member := false
		for _, v := range tab.freqs {
			if v == q {
				member = true
				break
			}
		}
		if !member {
			t.Fatalf("Quantize(%v) = %v not in the table", in, q)
		}
		if in >= tab.Min() && in <= tab.Max() {
			if d := q - in; d > 0.05+1e-9 || d < -0.05-1e-9 {
				t.Fatalf("Quantize(%v) = %v further than half a step", in, q)
			}
		}
	})
}

package cpu

import (
	"encoding/binary"
	"math"
	"testing"
)

// quantizeRef is Quantize as it was written before the guessed index: a
// binary search for the first state ≥ f. Quantize must match it bit for
// bit on every table and every input.
func quantizeRef(t PStateTable, f float64) float64 {
	if f <= t.freqs[0] {
		return t.freqs[0]
	}
	last := len(t.freqs) - 1
	if f >= t.freqs[last] {
		return t.freqs[last]
	}
	lo, hi := 0, last
	for lo < hi {
		mid := (lo + hi) / 2
		if t.freqs[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && f-t.freqs[lo-1] < t.freqs[lo]-f {
		return t.freqs[lo-1]
	}
	return t.freqs[lo]
}

// tableFromBytes decodes a strictly ascending table of 1 to 40 states from
// b: the first byte picks the length and the lowest state, and each
// following pair of bytes one gap, from 1/4096 GHz up to 16 GHz, so tables
// come out uneven. An empty b gives the default table.
func tableFromBytes(b []byte) PStateTable {
	if len(b) == 0 {
		return DefaultPStates()
	}
	n := 1 + int(b[0])%40
	freqs := []float64{0.05 + float64(b[0])/64}
	b = b[1:]
	for len(freqs) < n {
		var gap uint16 = 409 // 0.1 GHz once the bytes run out
		if len(b) >= 2 {
			gap, b = binary.LittleEndian.Uint16(b), b[2:]
		}
		freqs = append(freqs, freqs[len(freqs)-1]+float64(1+uint32(gap))/4096)
	}
	return newPStateTable(freqs)
}

// quantizeInputs lists the requests every table is checked at: NaN, the
// signed zeros and infinities, each entry, its neighbours one ulp away,
// the midpoints between entries and their neighbours, and points outside
// the table.
func quantizeInputs(t PStateTable) []float64 {
	in := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1, 1e300, -1e300}
	for i, f := range t.freqs {
		in = append(in, f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
		if i > 0 {
			mid := t.freqs[i-1] + (f-t.freqs[i-1])/2
			in = append(in, mid, math.Nextafter(mid, 0), math.Nextafter(mid, math.Inf(1)),
				t.freqs[i-1]+(f-t.freqs[i-1])/3, t.freqs[i-1]+(f-t.freqs[i-1])*0.9)
		}
	}
	return in
}

// checkQuantize fails unless Quantize and quantizeRef agree, by
// math.Float64bits, on in and on every input of quantizeInputs.
func checkQuantize(t *testing.T, tab PStateTable, extra ...float64) {
	t.Helper()
	for _, f := range append(quantizeInputs(tab), extra...) {
		got, want := tab.Quantize(f), quantizeRef(tab, f)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("table %v: Quantize(%v) = %v, reference %v", tab.freqs, f, got, want)
		}
	}
}

// Quantize must match the binary search on the default table, on tables
// built by NewPStateTable and on generated uneven tables.
func TestQuantizeMatchesReference(t *testing.T) {
	checkQuantize(t, DefaultPStates())
	for _, r := range [][3]float64{{0.8, 3.5, 0.1}, {1, 2, 0.3}, {0.4, 0.5, 0.1}, {1.2, 3.1, 0.05}} {
		tab, err := NewPStateTable(r[0], r[1], r[2])
		if err != nil {
			t.Fatal(err)
		}
		checkQuantize(t, tab)
	}
	for seed := 0; seed < 256; seed++ {
		b := make([]byte, 81)
		for i := range b {
			b[i] = byte(seed*131 + i*i*7 + i*seed)
		}
		checkQuantize(t, tableFromBytes(b))
	}
}

// FuzzQuantize checks that any request maps to a table member with the
// round-to-nearest property, without panicking, and that Quantize matches
// the binary search bit for bit on the default table (table empty) or on
// a table decoded from the fuzz bytes.
func FuzzQuantize(f *testing.F) {
	f.Add(1.23, []byte{})
	f.Add(-5.0, []byte{})
	f.Add(1e300, []byte{})
	f.Add(0.97, []byte{17, 0x10, 0, 0xff, 0xff, 3, 0, 0x40, 1})
	f.Add(math.NaN(), []byte{39})
	f.Fuzz(func(t *testing.T, in float64, table []byte) {
		tab := tableFromBytes(table)
		checkQuantize(t, tab, in)
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
		if len(table) == 0 && in >= tab.Min() && in <= tab.Max() {
			if d := q - in; d > 0.05+1e-9 || d < -0.05-1e-9 {
				t.Fatalf("Quantize(%v) = %v further than half a step", in, q)
			}
		}
	})
}

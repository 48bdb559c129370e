package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPStateTableValidation(t *testing.T) {
	if _, err := NewPStateTable(0, 2, 0.1); err == nil {
		t.Error("zero min should fail")
	}
	if _, err := NewPStateTable(2, 1, 0.1); err == nil {
		t.Error("max < min should fail")
	}
	if _, err := NewPStateTable(1, 2, 0); err == nil {
		t.Error("zero step should fail")
	}
}

func TestDefaultPStates(t *testing.T) {
	tab := DefaultPStates()
	if tab.Min() != 0.4 || tab.Max() != 2.0 {
		t.Fatalf("range [%v, %v], want [0.4, 2.0]", tab.Min(), tab.Max())
	}
	if tab.Len() != 17 {
		t.Fatalf("Len = %d, want 17 (0.4..2.0 by 0.1)", tab.Len())
	}
	fs := tab.Freqs()
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatal("P-states must be strictly ascending")
		}
	}
}

func TestQuantize(t *testing.T) {
	tab := DefaultPStates()
	cases := []struct{ in, want float64 }{
		{0.0, 0.4}, {0.39, 0.4}, {0.44, 0.4}, {0.46, 0.5},
		{1.0, 1.0}, {1.23, 1.2}, {1.26, 1.3}, {2.0, 2.0}, {9.9, 2.0},
	}
	for _, c := range cases {
		if got := tab.Quantize(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: Quantize returns a table member within half a step of any
// in-range request, and is idempotent.
func TestQuantizeProperty(t *testing.T) {
	tab := DefaultPStates()
	member := func(f float64) bool {
		for _, v := range tab.Freqs() {
			if math.Abs(v-f) < 1e-12 {
				return true
			}
		}
		return false
	}
	f := func(raw float64) bool {
		in := 0.4 + math.Mod(math.Abs(raw), 1.6)
		q := tab.Quantize(in)
		if !member(q) {
			return false
		}
		if math.Abs(q-in) > 0.05+1e-9 {
			return false
		}
		return tab.Quantize(q) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCPUCoreStateManagement(t *testing.T) {
	c, err := New(8, DefaultPStates())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCores() != 8 {
		t.Fatalf("NumCores = %d", c.NumCores())
	}
	for i := 0; i < 4; i++ {
		c.SetClass(i, Interactive)
	}
	for i := 4; i < 8; i++ {
		c.SetClass(i, Batch)
	}
	if c.Core(3).Class != Interactive || c.Core(4).Class != Batch {
		t.Fatalf("classes = %v, %v", c.Core(3).Class, c.Core(4).Class)
	}
	applied := c.SetFreq(5, 1.234)
	if applied != 1.2 {
		t.Fatalf("SetFreq applied %v, want quantized 1.2", applied)
	}
	if c.Core(5).Freq != 1.2 {
		t.Fatal("core state not updated")
	}
	c.SetUtil(5, 1.7)
	if c.Core(5).Util != 1 {
		t.Fatal("Util should clamp to 1")
	}
	c.SetUtil(5, -0.5)
	if c.Core(5).Util != 0 {
		t.Fatal("Util should clamp to 0")
	}
}

func TestClassString(t *testing.T) {
	if Idle.String() != "idle" || Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultPStates()); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := New(4, PStateTable{}); err == nil {
		t.Error("empty table should fail")
	}
}

// Windows onto one table read and write it in place, and share one
// generation counter that moves only when a write changes a core's bits.
func TestWindowSharesTable(t *testing.T) {
	tab := DefaultPStates()
	freqs := []float64{0.4, 0.4, 0.4, 0.4}
	utils := make([]float64, 4)
	var gen uint64
	a, err := Window(tab, freqs[:2:2], utils[:2:2], &gen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Window(tab, freqs[2:], utils[2:], &gen)
	if err != nil {
		t.Fatal(err)
	}
	a.SetFreq(1, 1.23)
	b.SetUtil(0, 0.5)
	if freqs[1] != 1.2 || utils[2] != 0.5 || b.Freq(0) != 0.4 {
		t.Fatalf("table %v %v after writes through two windows", freqs, utils)
	}
	if gen != 1 {
		t.Fatalf("generation %d after one changing write, want 1", gen)
	}
	a.SetFreq(1, 1.2)  // the same bits
	a.SetFreq(1, 1.21) // quantizes to the P-state held
	b.SetUtil(1, 0.7)  // utilization is not a frequency
	if gen != 1 {
		t.Fatalf("generation %d after writes that changed no frequency, want 1", gen)
	}
	b.SetFreq(1, 2.0)
	if gen != 2 || freqs[3] != 2.0 {
		t.Fatalf("generation %d, table %v after a second changing write", gen, freqs)
	}
	if _, err := Window(tab, freqs, utils[:3], &gen); err == nil {
		t.Fatal("a window with mismatched slices should fail")
	}
	if _, err := Window(tab, nil, nil, &gen); err == nil {
		t.Fatal("an empty window should fail")
	}
}

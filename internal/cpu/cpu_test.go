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
	fs := tab.freqs
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
		for _, v := range tab.freqs {
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

func TestClassString(t *testing.T) {
	if Idle.String() != "idle" || Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

package engine

import (
	"math"
	"testing"
)

func TestStateDistinguishesBitPatterns(t *testing.T) {
	equal := func(a, b func(s *State)) bool {
		var x, y State
		a(&x)
		b(&y)
		return x.Equal(&y)
	}
	f := func(v float64) func(s *State) { return func(s *State) { s.F64(v) } }
	if !equal(f(1.0), f(1.0)) {
		t.Fatal("identical states compared unequal")
	}
	if equal(f(1.0), f(math.Nextafter(1, 2))) {
		t.Fatal("one-ulp difference compared equal")
	}
	if equal(f(0.0), f(math.Copysign(0, -1))) {
		t.Fatal("+0 and −0 compared equal; the state must be bit-strict")
	}
	if equal(f(math.Float64frombits(0x7ff8000000000001)), f(math.Float64frombits(0x7ff8000000000002))) {
		t.Fatal("distinct NaN payloads compared equal")
	}
}

func TestStateLengthFraming(t *testing.T) {
	var a, b State
	a.F64s([]float64{1})
	a.F64s(nil)
	b.F64s(nil)
	b.F64s([]float64{1})
	if a.Equal(&b) {
		t.Fatal("length framing failed: [1],[] equalled [],[1]")
	}
}

func TestStateResetMatchesFresh(t *testing.T) {
	var d State
	d.F64(3.5)
	d.Reset()
	d.Int(-7)
	d.Bool(true)
	var fresh State
	fresh.Int(-7)
	fresh.Bool(true)
	if !d.Equal(&fresh) {
		t.Fatal("Reset state differs from a fresh state over the same values")
	}
}

func TestStateSteadyStateDoesNotAllocate(t *testing.T) {
	var s State
	fill := func() {
		s.Reset()
		s.F64s([]float64{1, 2, 3})
		s.Ints([]int{4, 5})
		s.Bools([]bool{true, false})
		s.F64(6)
	}
	fill() // grow the backing array once
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("refilling a grown state allocates %.1f times per run", allocs)
	}
}

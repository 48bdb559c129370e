// Package engine provides the state word list the discrete-event
// simulation core (DESIGN.md §15) uses to certify exact floating-point
// fixed points of the controller + plant state machine: two consecutive
// post-tick states are compared word for word, never through a hash. The
// package is a leaf: control and core append their state to a State
// without importing the simulation engine.
package engine

import (
	"math"
	"slices"
)

// State is a list of raw 64-bit words appended by typed methods. Two
// States are Equal only if every appended value is bit-identical (floats
// compare by their IEEE-754 bit patterns, so −0 ≠ +0 and NaN payloads
// matter — the strict direction for fixed-point certification). The zero
// value is ready; Reset keeps the backing array, so a State that has grown
// once appends without allocating.
type State struct {
	w []uint64
}

// Reset empties the state, keeping capacity.
func (s *State) Reset() { s.w = s.w[:0] }

// Equal reports whether both states hold the same words.
func (s *State) Equal(o *State) bool { return slices.Equal(s.w, o.w) }

// F64 appends one float64 by bit pattern.
func (s *State) F64(v float64) { s.w = append(s.w, math.Float64bits(v)) }

// F64s appends a float64 slice, length first (so [a][b] ≠ [a,b][]).
func (s *State) F64s(vs []float64) {
	s.w = append(s.w, uint64(len(vs)))
	for _, v := range vs {
		s.w = append(s.w, math.Float64bits(v))
	}
}

// Int appends one int.
func (s *State) Int(v int) { s.w = append(s.w, uint64(int64(v))) }

// Ints appends an int slice, length first.
func (s *State) Ints(vs []int) {
	s.w = append(s.w, uint64(len(vs)))
	for _, v := range vs {
		s.w = append(s.w, uint64(int64(v)))
	}
}

// Bool appends one bool.
func (s *State) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	s.w = append(s.w, b)
}

// Bools appends a bool slice, length first.
func (s *State) Bools(vs []bool) {
	s.w = append(s.w, uint64(len(vs)))
	for _, v := range vs {
		s.Bool(v)
	}
}

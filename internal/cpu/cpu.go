// Package cpu holds the vocabulary of per-core DVFS, the hardware
// adaptation knob SprintCon manipulates (paper Section IV-D): a discrete
// P-state table from 400 MHz to 2.0 GHz, the workload class telling the
// controllers which cores run interactive versus batch work, and the clamp
// every stored utilization passes through. The cores' state itself lives in
// the rack's core table (package rack).
package cpu

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Class labels what a core is running. SprintCon's server power controller
// keeps Interactive cores at peak frequency and manipulates only Batch cores
// (paper Section IV-C).
type Class int

const (
	// Idle cores run no workload.
	Idle Class = iota
	// Interactive cores serve latency-critical request traffic.
	Interactive
	// Batch cores run throughput work with deadlines in minutes.
	Batch
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Idle:
		return "idle"
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// PStateTable is an immutable, ascending table of available core
// frequencies in GHz. It marshals to JSON as the plain frequency list so
// scenario files stay readable.
type PStateTable struct {
	freqs []float64
	// scale is (Len()−1)/(Max()−Min()), the index step per GHz of an
	// evenly spaced table with the same span: Quantize's first guess.
	scale float64
}

// newPStateTable wraps a non-empty, strictly ascending frequency list.
func newPStateTable(freqs []float64) PStateTable {
	t := PStateTable{freqs: freqs}
	if last := len(freqs) - 1; last > 0 {
		t.scale = float64(last) / (freqs[last] - freqs[0])
	}
	return t
}

// MarshalJSON implements json.Marshaler.
func (t PStateTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.freqs)
}

// UnmarshalJSON implements json.Unmarshaler, validating that the list is
// non-empty, positive and strictly ascending.
func (t *PStateTable) UnmarshalJSON(data []byte) error {
	var freqs []float64
	if err := json.Unmarshal(data, &freqs); err != nil {
		return err
	}
	if len(freqs) == 0 {
		return errors.New("cpu: empty P-state list")
	}
	for i, f := range freqs {
		if f <= 0 {
			return fmt.Errorf("cpu: P-state %d = %g must be positive", i, f)
		}
		if i > 0 && f <= freqs[i-1] {
			return fmt.Errorf("cpu: P-states not strictly ascending at %d", i)
		}
	}
	*t = newPStateTable(freqs)
	return nil
}

// NewPStateTable builds a table covering [minGHz, maxGHz] in steps of
// stepGHz (the last state is exactly maxGHz).
func NewPStateTable(minGHz, maxGHz, stepGHz float64) (PStateTable, error) {
	if minGHz <= 0 || maxGHz <= minGHz || stepGHz <= 0 {
		return PStateTable{}, errors.New("cpu: need 0 < min < max and step > 0")
	}
	var freqs []float64
	for f := minGHz; f < maxGHz-1e-9; f += stepGHz {
		freqs = append(freqs, f)
	}
	freqs = append(freqs, maxGHz)
	return newPStateTable(freqs), nil
}

// DefaultPStates returns the paper's 400 MHz – 2.0 GHz range in 100 MHz steps.
func DefaultPStates() PStateTable {
	t, err := NewPStateTable(0.4, 2.0, 0.1)
	if err != nil {
		panic(err) // statically valid
	}
	return t
}

// Min returns the lowest frequency.
func (t PStateTable) Min() float64 { return t.freqs[0] }

// Max returns the highest frequency.
func (t PStateTable) Max() float64 { return t.freqs[len(t.freqs)-1] }

// Len returns the number of P-states.
func (t PStateTable) Len() int { return len(t.freqs) }

// Quantize maps a requested frequency to the nearest available P-state
// (ties round up), clamping to the table's range; a NaN request maps to
// the lowest state. The first state ≥ f is found by guessing its index
// from the table's span and walking from there, which is exact for any
// strictly ascending table and takes a step or two on an even grid.
func (t PStateTable) Quantize(f float64) float64 {
	fs := t.freqs
	if !(f > fs[0]) {
		return fs[0]
	}
	last := len(fs) - 1
	if f >= fs[last] {
		return fs[last]
	}
	// fs[0] < f < fs[last], so the first state ≥ f has an index in
	// [1, last] and both walks stop inside the table.
	i := 1 + int((f-fs[0])*t.scale)
	if i > last {
		i = last
	}
	for fs[i] < f {
		i++
	}
	for fs[i-1] >= f {
		i--
	}
	if f-fs[i-1] < fs[i]-f {
		return fs[i-1]
	}
	return fs[i]
}

// ClampUtil clamps a utilization to [0, 1]: values above 1 (+Inf included)
// become 1, values at or below 0 (−0 and −Inf included) become +0, and any
// NaN becomes math.NaN(). That is math.Min(1, math.Max(0, u)) bit for bit
// as amd64 computes it, in comparisons the compiler inlines. (The builtin
// min and max, and math.Max on arm64, would pass a NaN's payload through
// instead.)
func ClampUtil(u float64) float64 {
	switch {
	case u >= 1:
		return 1
	case u <= 0:
		return 0
	case math.IsNaN(u):
		return math.NaN()
	}
	return u
}

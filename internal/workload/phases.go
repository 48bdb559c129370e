package workload

import (
	"fmt"
	"math"
)

// Phase is one execution phase of a batch benchmark: real programs
// alternate compute-bound and memory-bound regions, so DVFS leverage and
// core utilization vary over a run. Frac is the fraction of the total work
// spent in the phase.
type Phase struct {
	Frac     float64
	MemBound float64
	Util     float64
}

// validatePhases checks a phase list (empty is allowed: single-phase).
func validatePhases(name string, phases []Phase) error {
	if len(phases) == 0 {
		return nil
	}
	var sum float64
	for i, p := range phases {
		switch {
		case p.Frac <= 0:
			return fmt.Errorf("workload: %s phase %d: Frac must be positive", name, i)
		case p.MemBound < 0 || p.MemBound >= 1:
			return fmt.Errorf("workload: %s phase %d: MemBound must be in [0, 1)", name, i)
		case p.Util <= 0 || p.Util > 1:
			return fmt.Errorf("workload: %s phase %d: Util must be in (0, 1]", name, i)
		}
		sum += p.Frac
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload: %s: phase fractions sum to %g, want 1", name, sum)
	}
	return nil
}

// phases returns the effective phase list: the declared phases, or a
// single phase synthesized from the spec's aggregate parameters.
func (s BatchSpec) phases() []Phase {
	if len(s.Phases) > 0 {
		return s.Phases
	}
	return []Phase{{Frac: 1, MemBound: s.MemBound, Util: s.Util}}
}

// EffectiveMemBound returns the work-weighted memory-boundness. Because
// per-unit-work execution time is linear in β, the aggregate progress model
// (Rate, Speedup) is exact with this averaged value.
func (s BatchSpec) EffectiveMemBound() float64 {
	if len(s.Phases) == 0 {
		return s.MemBound
	}
	var b float64
	for _, p := range s.Phases {
		b += p.Frac * p.MemBound
	}
	return b
}

// phaseRate is the execution speed within one phase at frequency f.
func phaseRate(p Phase, f, fmax float64) float64 {
	if f <= 0 {
		return 0
	}
	if f > fmax {
		f = fmax
	}
	return 1 / (p.MemBound + (1-p.MemBound)*fmax/f)
}

// phaseIndexAt returns the phase containing work position pos ∈ [0, total).
func (s BatchSpec) phaseIndexAt(pos, total float64) int {
	phases := s.phases()
	var cum float64
	for i, p := range phases {
		cum += p.Frac * total
		if pos < cum-1e-12 {
			return i
		}
	}
	return len(phases) - 1
}

// phaseEndWork returns the cumulative work at the end of phase idx.
func (s BatchSpec) phaseEndWork(idx int, total float64) float64 {
	phases := s.phases()
	var cum float64
	for i := 0; i <= idx && i < len(phases); i++ {
		cum += phases[i].Frac * total
	}
	return cum
}

// RequiredFreq returns the constant frequency that completes the job's
// remaining (phase-aware) work exactly at its deadline, clamped to
// [0, fmax]; fmax if no frequency suffices. Derivation: the remaining wall
// time at frequency f is Σ w_ph·(β_ph + (1−β_ph)·fmax/f) over remaining
// phase segments, linear in fmax/f.
func (j *BatchJob) RequiredFreq(now, fmax float64) float64 {
	if j.Completed() {
		return 0
	}
	left := j.Deadline - now
	if left <= 0 {
		return fmax
	}
	var wBeta, wComp float64 // Σw·β and Σw·(1−β) over remaining work
	pos := j.totalWork - j.remaining
	phases := j.Spec.phases()
	var cum float64
	for _, p := range phases {
		segStart := cum
		cum += p.Frac * j.totalWork
		segEnd := cum
		if segEnd <= pos {
			continue
		}
		w := segEnd - math.Max(segStart, pos)
		wBeta += w * p.MemBound
		wComp += w * (1 - p.MemBound)
	}
	denom := left - wBeta
	if denom <= 0 {
		return fmax // memory stalls alone exceed the deadline budget
	}
	f := fmax * wComp / denom
	if f > fmax {
		f = fmax
	}
	if f < 0 {
		f = 0
	}
	return f
}

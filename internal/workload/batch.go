// Package workload provides the two workload substrates of the paper's
// evaluation (Section VI-A):
//
//   - batch workloads modeled on the SPEC CPU2006 benchmarks the authors ran
//     (CINT 400/401/403/429 and CFP 433/444/447/450), each with a
//     memory-boundness parameter feeding a CoScale-style progress model [12]
//     that predicts how DVFS affects execution time, and
//   - an interactive workload generator with the statistical shape of the
//     Wikipedia data-center trace [31]: diurnal baseline, a flash-crowd
//     burst, autocorrelated noise and occasional spikes.
//
// The physical trace-collection step of the paper is replaced by these
// deterministic, seeded generators; see DESIGN.md §2 for the substitution
// rationale.
package workload

import (
	"errors"
	"fmt"
	"math"
)

// BatchSpec is the static description of one batch benchmark.
type BatchSpec struct {
	// Name identifies the benchmark (SPEC CPU2006 numbering).
	Name string
	// MemBound is the fraction β of execution time that does not scale
	// with core frequency (memory/IO stalls). The CoScale-style progress
	// model gives relative speed r(f) = 1/(β + (1−β)·f_max/f).
	MemBound float64
	// Util is the core utilization the benchmark sustains while running.
	Util float64
	// PeakSeconds is the execution time at peak frequency.
	PeakSeconds float64
	// Phases optionally subdivides the run into regions with their own
	// memory-boundness and utilization (fractions must sum to 1). Empty
	// means a single uniform phase with the aggregate MemBound/Util.
	Phases []Phase
}

// Validate reports structural errors in the spec.
func (s BatchSpec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("workload: batch spec needs a name")
	case s.MemBound < 0 || s.MemBound >= 1:
		return fmt.Errorf("workload: %s: MemBound must be in [0, 1)", s.Name)
	case s.Util <= 0 || s.Util > 1:
		return fmt.Errorf("workload: %s: Util must be in (0, 1]", s.Name)
	case s.PeakSeconds <= 0:
		return fmt.Errorf("workload: %s: PeakSeconds must be positive", s.Name)
	}
	return validatePhases(s.Name, s.Phases)
}

// Rate returns the aggregate execution speed at frequency f relative to
// peak frequency fmax: 1 at f = fmax, falling toward 0 as f → 0 for
// compute-bound workloads and staying near 1 for memory-bound ones. For
// phased specs this is exact over a whole execution (per-unit-work time is
// linear in β, so the work-weighted β̄ aggregates exactly).
func (s BatchSpec) Rate(f, fmax float64) float64 {
	if f <= 0 {
		return 0
	}
	if f > fmax {
		f = fmax
	}
	beta := s.EffectiveMemBound()
	return 1 / (beta + (1-beta)*fmax/f)
}

// Speedup returns the speed at f relative to the speed at fref.
func (s BatchSpec) Speedup(f, fref, fmax float64) float64 {
	return s.Rate(f, fmax) / s.Rate(fref, fmax)
}

// SpecCPU2006 returns models of the eight benchmarks of the paper's
// physical tests. Memory-boundness values follow published DVFS-sensitivity
// characterizations: mcf and milc are strongly memory bound, namd and
// perlbench almost purely compute bound.
func SpecCPU2006() []BatchSpec {
	return []BatchSpec{
		{Name: "400.perlbench", MemBound: 0.10, Util: 0.99, PeakSeconds: 340},
		{Name: "401.bzip2", MemBound: 0.16, Util: 0.98, PeakSeconds: 290},
		// gcc alternates parsing/optimization (compute) with pointer
		// chasing; its phases average to the aggregate parameters.
		{Name: "403.gcc", MemBound: 0.26, Util: 0.96, PeakSeconds: 260, Phases: []Phase{
			{Frac: 0.40, MemBound: 0.10, Util: 0.98},
			{Frac: 0.35, MemBound: 0.40, Util: 0.94},
			{Frac: 0.25, MemBound: 0.32, Util: 0.95},
		}},
		// mcf's long pointer-chasing phase dominates a short setup phase.
		{Name: "429.mcf", MemBound: 0.58, Util: 0.92, PeakSeconds: 380, Phases: []Phase{
			{Frac: 0.25, MemBound: 0.3000, Util: 0.96},
			{Frac: 0.75, MemBound: 0.6733, Util: 0.90},
		}},
		{Name: "433.milc", MemBound: 0.52, Util: 0.93, PeakSeconds: 330},
		{Name: "444.namd", MemBound: 0.07, Util: 0.99, PeakSeconds: 420},
		{Name: "447.dealII", MemBound: 0.19, Util: 0.97, PeakSeconds: 310},
		// soplex splits evenly between factorization and pricing.
		{Name: "450.soplex", MemBound: 0.44, Util: 0.94, PeakSeconds: 300, Phases: []Phase{
			{Frac: 0.50, MemBound: 0.28, Util: 0.96},
			{Frac: 0.50, MemBound: 0.60, Util: 0.92},
		}},
	}
}

// SteadyStateSpecs returns the single-phase subset of SpecCPU2006. A
// single-phase job's utilization is constant across re-execution wraps, so a
// rack running only these reaches an exact steady state between demand
// edges — the job mix for event-engine benchmarks and bit-identity tests.
func SteadyStateSpecs() []BatchSpec {
	var out []BatchSpec
	for _, s := range SpecCPU2006() {
		if len(s.Phases) <= 1 {
			out = append(out, s)
		}
	}
	return out
}

// Fig1Workloads returns the six workloads used for the paper's Fig. 1
// per-watt-speedup analysis (the six distinct sprinting workloads of [4];
// here, the six most DVFS-diverse of the SPEC set).
func Fig1Workloads() []BatchSpec {
	all := SpecCPU2006()
	return []BatchSpec{all[0], all[2], all[3], all[4], all[5], all[7]}
}

// BatchJob is the mutable execution state of one batch workload instance
// running on one CPU core: its deadline, its completions, and the words
// that change every tick, namely the work accounting (total and remaining
// work, execution seconds) and the segment memo. A rack holds its jobs by
// value, one per batch core in one table, and its per-tick sweeps walk
// that table.
type BatchJob struct {
	Spec BatchSpec
	// Deadline is the absolute completion deadline in seconds of
	// simulation time; work must finish by then (paper Section VII-D:
	// deferment is not an option).
	Deadline float64

	startTime float64
	doneAt    float64 // first completion time, NaN until complete
	completed int     // completions (paper: jobs re-execute immediately)

	totalWork float64 // peak-seconds to complete once
	remaining float64
	execSecs  float64 // wall seconds spent executing
	// seg is derived state: ExportState leaves it out and RestoreState
	// clears it.
	seg segment
}

// NewBatchJob starts a job at simulation time start with the given absolute
// deadline. The job's work equals the spec's PeakSeconds.
func NewBatchJob(spec BatchSpec, start, deadline float64) (BatchJob, error) {
	if err := spec.Validate(); err != nil {
		return BatchJob{}, err
	}
	if deadline <= start {
		return BatchJob{}, fmt.Errorf("workload: %s: deadline %g not after start %g", spec.Name, deadline, start)
	}
	return BatchJob{
		Spec:      spec,
		Deadline:  deadline,
		startTime: start,
		doneAt:    math.NaN(),
		totalWork: spec.PeakSeconds,
		remaining: spec.PeakSeconds,
	}, nil
}

// ScaleWork multiplies the job's total (and remaining) work, used by the
// experiments to size jobs relative to their deadlines. It must be called
// before any Advance.
func (j *BatchJob) ScaleWork(factor float64) {
	if factor <= 0 {
		panic("workload: ScaleWork factor must be positive")
	}
	if j.execSecs > 0 {
		panic("workload: ScaleWork after execution started")
	}
	j.totalWork *= factor
	j.remaining = j.totalWork
}

// Progress returns completed fraction of the current execution in [0, 1).
func (j *BatchJob) Progress() float64 { return 1 - j.remaining/j.totalWork }

// WorkDone returns the total work executed so far in peak-seconds
// (completed executions plus the current one's progress) — the throughput
// numerator for energy-efficiency accounting.
func (j *BatchJob) WorkDone() float64 {
	return float64(j.completed)*j.totalWork + (j.totalWork - j.remaining)
}

// Completed reports whether the job has finished at least once.
func (j *BatchJob) Completed() bool { return !math.IsNaN(j.doneAt) }

// CompletionTime returns the first completion time (NaN if none yet).
func (j *BatchJob) CompletionTime() float64 { return j.doneAt }

// MissedDeadline reports whether the first completion came after the
// deadline, or has not come although now is past the deadline.
func (j *BatchJob) MissedDeadline(now float64) bool {
	if j.Completed() {
		return j.doneAt > j.Deadline
	}
	return now >= j.Deadline
}

// RWeight returns the paper's control-penalty weight for this job's core:
// remaining progress over normalized remaining time before deadline
// (Section V-B: 80 % done, 6 min used, 4 min left → R = 0.5). Jobs that are
// behind schedule get larger R, hence more frequency. After first
// completion the weight reflects a relaxed re-execution (low urgency).
func (j *BatchJob) RWeight(now float64) float64 {
	if j.Completed() {
		return 0.1 // re-execution rounds: lowest urgency
	}
	total := j.Deadline - j.startTime
	left := j.Deadline - now
	if left <= 0 {
		return 100 // past deadline: maximal urgency
	}
	normLeft := left / total
	w := (1 - j.Progress()) / normLeft
	if w < 0.01 {
		w = 0.01
	}
	if w > 100 {
		w = 100
	}
	return w
}

// segment is the phase segment the last Advance call ended inside: its
// end, its phase's utilization and memory-boundness, and the rate at the f
// and fmax whose bits it keeps. Work position only grows within one
// execution, so while the position stays below the segment's end by
// phaseIndexAt's own margin, phaseIndexAt would return the segment's phase
// again, and phaseRate of that phase at the same f and fmax gives the rate
// the memo recomputes on a frequency change. A wrap and RestoreState
// invalidate it (ScaleWork cannot follow an Advance that sets it).
type segment struct {
	ok       bool
	f, fmax  uint64 // bits of the f and fmax rate was computed for
	rate     float64
	end      float64 // phaseEndWork of the segment's phase
	util     float64 // that phase's Util
	memBound float64 // that phase's MemBound
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// inSegment reports whether a tick of dt seconds at rate, which executes
// step = rate·dt rounded, ends before segWork more work: segWork/rate > dt.
// When step is a normal number, round-to-nearest keeps it within a
// relative 2⁻⁵³ of rate·dt, so segWork > 2·step puts segWork/rate above
// 1.99·dt and its rounded quotient above dt; the division is then skipped.
func inSegment(segWork, rate, step, dt float64) bool {
	return step >= minNormal && segWork > 2*step || segWork/rate > dt
}

// Advance executes the job for dt seconds at frequency f (with table peak
// fmax) starting at simulation time now, walking phase boundaries at their
// own rates. On completion it records the completion time and immediately
// restarts (continuous re-execution, as in the paper's trace methodology).
//
// A tick that stays inside the segment the previous call ended in takes
// the within-segment branch on the remembered end and rate, recomputing
// the rate from the remembered memory-boundness first if f or fmax
// changed. Its tests are the ones the segment walk would make, so the
// result is the same to the bit.
func (j *BatchJob) Advance(f, fmax, dt, now float64) {
	if dt < 0 {
		panic("workload: negative dt")
	}
	j.execSecs += dt
	if sg := &j.seg; sg.ok && dt > 1e-12 {
		if math.Float64bits(f) != sg.f || math.Float64bits(fmax) != sg.fmax {
			sg.f, sg.fmax = math.Float64bits(f), math.Float64bits(fmax)
			sg.rate = phaseRate(Phase{MemBound: sg.memBound}, f, fmax)
		}
		pos := j.totalWork - j.remaining
		if pos < sg.end-1e-12 {
			if sg.rate <= 0 {
				return // the walk makes no progress in this phase
			}
			segWork := sg.end - pos
			if segWork > j.remaining {
				segWork = j.remaining
			}
			if step := sg.rate * dt; inSegment(segWork, sg.rate, step, dt) {
				j.remaining -= step
				return
			}
		}
	}
	j.walk(f, fmax, dt, now)
}

// walk is Advance's segment walk: it executes dt seconds from the current
// position phase by phase and remembers the segment it ends in.
func (j *BatchJob) walk(f, fmax, dt, now float64) {
	j.seg.ok = false
	timeLeft := dt
	for timeLeft > 1e-12 {
		pos := j.totalWork - j.remaining
		idx := j.Spec.phaseIndexAt(pos, j.totalWork)
		ph := j.Spec.phases()[idx]
		rate := phaseRate(ph, f, fmax)
		if rate <= 0 {
			return
		}
		end := j.Spec.phaseEndWork(idx, j.totalWork)
		segWork := end - pos
		if segWork > j.remaining {
			segWork = j.remaining
		}
		segTime := segWork / rate
		if segTime > timeLeft {
			j.remaining -= rate * timeLeft
			j.seg = segment{ok: true, f: math.Float64bits(f), fmax: math.Float64bits(fmax),
				rate: rate, end: end, util: ph.Util, memBound: ph.MemBound}
			return
		}
		timeLeft -= segTime
		j.remaining -= segWork
		if j.remaining <= 1e-9 {
			t := now + (dt - timeLeft) // within-step completion time
			if math.IsNaN(j.doneAt) {
				j.doneAt = t
			}
			j.completed++
			j.remaining = j.totalWork // re-execute immediately
		}
	}
}

// AdvanceTicks executes n consecutive dt-second ticks at constant frequency
// f starting at simulation time now0, bit-identically to calling
// Advance(f, fmax, dt, now0+k·dt) for k = 0..n−1, segment memo included.
// After each Advance call, the ticks that Advance's within-segment branch
// would take run in a tight loop on the memo's end and rate, which hold
// while f, fmax and dt do; the first tick that may cross a phase
// boundary, complete or wrap goes through Advance again. The event engine
// uses this to replay batch progress across quiescent spans.
func (j *BatchJob) AdvanceTicks(f, fmax, dt, now0 float64, n int) {
	sg := &j.seg
	for k := 0; k < n; k++ {
		j.Advance(f, fmax, dt, now0+float64(k)*dt)
		if !sg.ok || !(dt > 1e-12) || sg.rate <= 0 {
			continue
		}
		step := sg.rate * dt
		for k+1 < n {
			pos := j.totalWork - j.remaining
			if !(pos < sg.end-1e-12) {
				break
			}
			segWork := sg.end - pos
			if segWork > j.remaining {
				segWork = j.remaining
			}
			if !inSegment(segWork, sg.rate, step, dt) {
				break
			}
			j.execSecs += dt
			j.remaining -= step
			k++
		}
	}
}

// StableTicks returns a conservative count of whole dt-second ticks of
// execution at constant frequency f during which CurrentUtil() cannot
// change. Single-phase specs report an effectively unbounded horizon: their
// utilization is constant even across re-execution wraps. Multi-phase specs
// report the ticks that certainly remain inside the current phase, which
// the event engine uses as a quiescent-span barrier.
func (j *BatchJob) StableTicks(f, fmax, dt float64) int {
	const unbounded = math.MaxInt32
	spec := &j.Spec
	phases := spec.phases()
	if len(phases) == 1 {
		return unbounded
	}
	pos := j.totalWork - j.remaining
	idx := spec.phaseIndexAt(pos, j.totalWork)
	rate := phaseRate(phases[idx], f, fmax)
	if rate <= 0 {
		return unbounded // no progress at f ≤ 0: the phase cannot change
	}
	segWork := spec.phaseEndWork(idx, j.totalWork) - pos
	if segWork > j.remaining {
		segWork = j.remaining
	}
	n := int(segWork/rate/dt) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// CurrentUtil returns the utilization of the job's current phase, what
// the core's performance counters would report this period. While the
// position is inside the segment the last Advance ended in, by
// phaseIndexAt's own test, that segment's phase is the current one.
func (j *BatchJob) CurrentUtil() float64 {
	if j.seg.ok && j.totalWork-j.remaining < j.seg.end-1e-12 {
		return j.seg.util
	}
	return j.Spec.phases()[j.Spec.phaseIndexAt(j.totalWork-j.remaining, j.totalWork)].Util
}

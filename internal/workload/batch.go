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
// bound to one CPU core. The words that change every tick live in the
// job's Record (see record.go): its own until a rack binds the job, then a
// slot of the rack's record table.
type BatchJob struct {
	Spec BatchSpec
	// Deadline is the absolute completion deadline in seconds of
	// simulation time; work must finish by then (paper Section VII-D:
	// deferment is not an option).
	Deadline float64

	startTime float64
	doneAt    float64 // first completion time, NaN until complete
	completed int     // completions (paper: jobs re-execute immediately)

	rec *Record // work accounting and segment memo
}

// NewBatchJob starts a job at simulation time start with the given absolute
// deadline. The job's work equals the spec's PeakSeconds.
func NewBatchJob(spec BatchSpec, start, deadline float64) (*BatchJob, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if deadline <= start {
		return nil, fmt.Errorf("workload: %s: deadline %g not after start %g", spec.Name, deadline, start)
	}
	j := &BatchJob{
		Spec:      spec,
		Deadline:  deadline,
		startTime: start,
		doneAt:    math.NaN(),
	}
	j.rec = &Record{job: j, totalWork: spec.PeakSeconds, remaining: spec.PeakSeconds}
	return j, nil
}

// ScaleWork multiplies the job's total (and remaining) work, used by the
// experiments to size jobs relative to their deadlines. It must be called
// before any Advance.
func (j *BatchJob) ScaleWork(factor float64) {
	if factor <= 0 {
		panic("workload: ScaleWork factor must be positive")
	}
	if j.rec.execSecs > 0 {
		panic("workload: ScaleWork after execution started")
	}
	j.rec.totalWork *= factor
	j.rec.remaining = j.rec.totalWork
}

// Progress returns completed fraction of the current execution in [0, 1).
func (j *BatchJob) Progress() float64 { return 1 - j.rec.remaining/j.rec.totalWork }

// WorkDone returns the total work executed so far in peak-seconds
// (completed executions plus the current one's progress) — the throughput
// numerator for energy-efficiency accounting.
func (j *BatchJob) WorkDone() float64 {
	return float64(j.completed)*j.rec.totalWork + (j.rec.totalWork - j.rec.remaining)
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

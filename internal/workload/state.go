package workload

import (
	"fmt"
	"math"
)

// JobState is the serializable snapshot of one batch job's execution state.
// The spec itself is not serialized: the scenario rebuilds it, and a
// fingerprint check upstream guarantees the rebuilt spec matches the one
// the snapshot was taken under.
type JobState struct {
	StartTime float64
	Deadline  float64
	TotalWork float64
	Remaining float64
	DoneAt    float64 // NaN until first completion
	Completed int
	ExecSecs  float64
}

// ExportState captures the job's mutable state.
func (j *BatchJob) ExportState() JobState {
	return JobState{
		StartTime: j.startTime,
		Deadline:  j.Deadline,
		TotalWork: j.totalWork,
		Remaining: j.remaining,
		DoneAt:    j.doneAt,
		Completed: j.completed,
		ExecSecs:  j.execSecs,
	}
}

// RestoreState overwrites the job's mutable state from a snapshot. Work
// accounting must stay self-consistent — a corrupt snapshot must not grant
// negative remaining work (instant completions) or a deadline before the
// start time.
func (j *BatchJob) RestoreState(st JobState) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"StartTime", st.StartTime},
		{"Deadline", st.Deadline},
		{"TotalWork", st.TotalWork},
		{"Remaining", st.Remaining},
		{"ExecSecs", st.ExecSecs},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s: snapshot %s is %g; must be finite", j.Spec.Name, f.name, f.v)
		}
	}
	switch {
	case st.TotalWork <= 0:
		return fmt.Errorf("workload: %s: snapshot total work %g must be positive", j.Spec.Name, st.TotalWork)
	case st.Remaining < 0 || st.Remaining > st.TotalWork:
		return fmt.Errorf("workload: %s: snapshot remaining work %g outside [0, %g]", j.Spec.Name, st.Remaining, st.TotalWork)
	case st.Deadline <= st.StartTime:
		return fmt.Errorf("workload: %s: snapshot deadline %g not after start %g", j.Spec.Name, st.Deadline, st.StartTime)
	case st.Completed < 0:
		return fmt.Errorf("workload: %s: snapshot completion count %d is negative", j.Spec.Name, st.Completed)
	case st.ExecSecs < 0:
		return fmt.Errorf("workload: %s: snapshot execution time %g is negative", j.Spec.Name, st.ExecSecs)
	case math.IsInf(st.DoneAt, 0):
		return fmt.Errorf("workload: %s: snapshot completion time is infinite", j.Spec.Name)
	}
	j.startTime = st.StartTime
	j.Deadline = st.Deadline
	j.totalWork = st.TotalWork
	j.remaining = st.Remaining
	j.doneAt = st.DoneAt
	j.completed = st.Completed
	j.execSecs = st.ExecSecs
	j.seg = segment{}
	return nil
}

package rack

import (
	"fmt"
	"math"
	"math/rand"

	"sprintcon/internal/cpu"
	"sprintcon/internal/workload"
)

// CoreState is one core's mutable state in a rack snapshot.
type CoreState struct {
	FreqGHz float64
	Util    float64
}

// State is the serializable snapshot of a rack's mutable state: every
// core's frequency and utilization, the per-server injected-fault
// condition, the noise-stream position, and the batch jobs' execution
// state (in BatchCores order). Every batch core has a job, so ExportState
// writes JobBound true throughout; RestoreState rejects a snapshot with a
// false entry as one that disagrees with the scenario.
type State struct {
	Cores     [][]CoreState // [server][core]
	Faults    []FaultState
	NormDraws int64
	JobBound  []bool
	Jobs      []workload.JobState
}

// maxNormDraws bounds the replayable noise-stream position: far beyond any
// realistic run length, but small enough that a corrupt snapshot cannot
// stall a restore replaying an absurd count.
const maxNormDraws = 100_000_000

// ExportState captures the rack's mutable state.
func (r *Rack) ExportState() State {
	nc := r.cfg.ServerParams.Cores
	st := State{
		Cores:     make([][]CoreState, r.cfg.NumServers),
		Faults:    append([]FaultState(nil), r.faults...),
		NormDraws: r.normDraws,
		JobBound:  make([]bool, len(r.batch)),
		Jobs:      make([]workload.JobState, len(r.batch)),
	}
	for si := range st.Cores {
		cores := make([]CoreState, nc)
		for ci := range cores {
			cores[ci] = CoreState{FreqGHz: r.freq[si*nc+ci], Util: r.util[si*nc+ci]}
		}
		st.Cores[si] = cores
	}
	for i := range r.jobs {
		st.JobBound[i] = true
		st.Jobs[i] = r.jobs[i].ExportState()
	}
	return st
}

// RestoreState overwrites the rack's mutable state from a snapshot taken on
// a rack with the same configuration. Frequencies are re-quantized through
// the P-state table (idempotent for values that came from it) and
// utilizations re-clamped, so no snapshot can install a physically
// impossible core state. The noise stream is restored by replaying the
// recorded number of draws against a fresh seeded source.
func (r *Rack) RestoreState(st State) error {
	nc := r.cfg.ServerParams.Cores
	if len(st.Cores) != r.cfg.NumServers {
		return fmt.Errorf("rack: snapshot has %d servers, rack has %d", len(st.Cores), r.cfg.NumServers)
	}
	for si, cores := range st.Cores {
		if len(cores) != nc {
			return fmt.Errorf("rack: snapshot server %d has %d cores, rack has %d", si, len(cores), nc)
		}
		for ci, c := range cores {
			if math.IsNaN(c.FreqGHz) || math.IsInf(c.FreqGHz, 0) || c.FreqGHz < 0 {
				return fmt.Errorf("rack: snapshot core s%d/c%d frequency %g invalid", si, ci, c.FreqGHz)
			}
			if math.IsNaN(c.Util) {
				return fmt.Errorf("rack: snapshot core s%d/c%d utilization is NaN", si, ci)
			}
		}
	}
	if len(st.Faults) != len(r.faults) {
		return fmt.Errorf("rack: snapshot has %d fault entries, rack has %d", len(st.Faults), len(r.faults))
	}
	if st.NormDraws < 0 || st.NormDraws > maxNormDraws {
		return fmt.Errorf("rack: snapshot noise-stream position %d outside [0, %d]", st.NormDraws, maxNormDraws)
	}
	if len(st.JobBound) != len(r.batch) || len(st.Jobs) != len(r.batch) {
		return fmt.Errorf("rack: snapshot has %d/%d job entries, rack has %d batch cores",
			len(st.JobBound), len(st.Jobs), len(r.batch))
	}
	for i, ref := range r.batch {
		if !st.JobBound[i] {
			return fmt.Errorf("rack: snapshot job binding for %v disagrees with the scenario", ref)
		}
	}

	// The frequencies go through the write rule as a healthy server's:
	// the fault states are the snapshot's, installed below.
	for si, cores := range st.Cores {
		for ci, c := range cores {
			r.setFreq(si*nc+ci, c.FreqGHz, FaultState{})
			r.util[si*nc+ci] = cpu.ClampUtil(c.Util)
		}
	}
	copy(r.faults, st.Faults)
	for si := range r.faults {
		r.syncOffline(si)
	}
	r.gen++
	r.igen++
	r.rng = rand.New(rand.NewSource(r.cfg.Seed))
	for i := int64(0); i < st.NormDraws; i++ {
		r.rng.NormFloat64()
	}
	r.normDraws = st.NormDraws
	for i := range r.jobs {
		if err := r.jobs[i].RestoreState(st.Jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

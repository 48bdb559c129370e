package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job names one simulation of a parameter sweep.
type Job struct {
	// Key identifies the job in the result map (e.g. "SprintCon@540s").
	Key string
	// Scenario and Policy define the run. Policies must not be shared
	// between jobs — they carry per-run state.
	Scenario Scenario
	Policy   Policy
	// Opts carries per-job run options (series stride, checkpointing,
	// sinks, cancellation). The zero value runs with telemetry off.
	Opts RunOptions
}

// RunMany executes the jobs concurrently (bounded by GOMAXPROCS) and
// returns results keyed by Job.Key. Each simulation is fully independent —
// its own rack, breaker, UPS and trace — so the sweep parallelizes
// embarrassingly; this is what makes the full experiment suite fast enough
// to run in CI. The first failing job in job order aborts the sweep.
func RunMany(jobs []Job) (map[string]*Result, error) {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("sim: job with empty key")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("sim: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}
	results, err := RunManyOrdered(jobs, 0)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(jobs))
	for i, j := range jobs {
		out[j.Key] = results[i]
	}
	return out, nil
}

// RunManyOrdered executes the jobs on workers goroutines (0 or less means
// GOMAXPROCS) and returns results in job order, so callers that depend on
// positional identity — cluster racks, sweep rows — get deterministic
// output regardless of scheduling. Workers take jobs in job order, so one
// worker runs them strictly one at a time. Each simulation is fully
// independent and every run is seeded, so the results are bit-identical at
// any worker count. The first failing job in job order aborts the sweep:
// once a job fails no further job starts, and every job before it has
// already started and runs to completion, so the reported job is the same
// at any worker count.
func RunManyOrdered(jobs []Job, workers int) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	out := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if out[i], errs[i] = runJob(jobs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			name := jobs[i].Key
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return nil, fmt.Errorf("sim: job %s: %w", name, err)
		}
	}
	return out, nil
}

// runJob executes one job with panic isolation: a panic on the worker
// goroutine becomes a *PanicError instead of crashing the process.
func runJob(j Job) (res *Result, err error) {
	defer RecoverPanic(&err)
	return RunWith(j.Scenario, j.Policy, j.Opts)
}

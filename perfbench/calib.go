package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"time"
)

// The hosts this benchmark runs on are shared: neighbours' load slows
// every instruction, CPU time included, by up to a factor of two, in
// stretches from seconds to minutes, more than the changes the benchmark
// must see. So the benchmark also times a fixed probe on sprintd's vCPU
// just before and just after each run, while sprintd is idle, and scales
// the run's throughput timings by the probe's slowdown around it: a timing
// t measured while the probe took p seconds is reported as t·probeRefS/p.
// With sprintd and the probe bound to one vCPU, a run's time and the
// probe's rise and fall together: over ten linked_paper invocations the
// median raw run time spread 24% and the scaled one 5.9%. The probe is the
// benchmark's own code, so no change to the program moves it.

// probeRefS is the probe's time on a quiet reference host (one vCPU of a
// 2-vCPU Intel Xeon VM under Linux, Go 1.24): scaled timings read as they
// would on that host.
const probeRefS = 0.0045

// hostScale is the factor that brings a timing measured while the probe
// took probeS seconds to the reference host's speed.
func hostScale(probeS float64) float64 { return probeRefS / probeS }

// probeReps is how many times one probe runs its work; the probe's time is
// the fastest repetition, so a single preemption does not count as a slow
// host.
const probeReps = 3

// prober times the probe on the vCPU sprintd is bound to. Its working set
// is built once, so a probe allocates nothing but what its allocation leg
// is meant to.
type prober struct {
	cpu int
	k   *probeWorker
}

type probeWorker struct {
	a, l []float64 // n×n SPD matrix and its Cholesky factor
	b    []float64
	mem  []float64 // streamed array, larger than a core's L2
	recs []probeRecord
	sink float64
}

type probeRecord struct {
	T     float64   `json:"t"`
	Rack  int       `json:"rack"`
	Name  string    `json:"name"`
	Power []float64 `json:"power"`
}

const (
	probeN      = 40      // matrix order of the float leg
	probeSolves = 20      // Cholesky factor-and-solves per repetition
	probeMem    = 1 << 19 // float64s in the streamed array (4 MiB)
	probePasses = 4       // passes over the array per repetition
	probeRecs   = 200     // records encoded per round trip
	probeTrips  = 5       // JSON round trips per repetition
)

func newProber(cpu int) *prober {
	k := &probeWorker{
		a:   make([]float64, probeN*probeN),
		l:   make([]float64, probeN*probeN),
		b:   make([]float64, probeN),
		mem: make([]float64, probeMem),
	}
	for i := 0; i < probeN; i++ {
		for j := 0; j < probeN; j++ {
			k.a[i*probeN+j] = 1 / float64(1+i+j) // Hilbert-like, shifted to be SPD
		}
		k.a[i*probeN+i] += probeN
		k.b[i] = float64(i%7) - 3
	}
	for i := range k.mem {
		k.mem[i] = float64(i%1000) * 0.5
	}
	for i := 0; i < probeRecs; i++ {
		k.recs = append(k.recs, probeRecord{T: float64(i), Rack: i % 16, Name: "rack-" + strconv.Itoa(i%16),
			Power: []float64{310.5 + float64(i), 288.25, 401.125, 97.5}})
	}
	return &prober{cpu: cpu, k: k}
}

// probe returns the fastest of probeReps timings of the fixed work, run on
// sprintd's vCPU.
func (p *prober) probe() (float64, error) {
	best := math.Inf(1)
	err := onCPU(p.cpu, func() {
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			p.k.work()
			best = math.Min(best, time.Since(t0).Seconds())
		}
	})
	return best, err
}

// work is one repetition: dense float factorisations (the controller's
// QP), streaming passes over an array larger than L2 (per-rack state and
// series), and allocation-heavy JSON encoding and sorting (streams and
// summaries).
func (k *probeWorker) work() {
	n := probeN
	for s := 0; s < probeSolves; s++ {
		copy(k.l, k.a)
		for j := 0; j < n; j++ {
			d := k.l[j*n+j]
			for q := 0; q < j; q++ {
				d -= k.l[j*n+q] * k.l[j*n+q]
			}
			d = math.Sqrt(d)
			k.l[j*n+j] = d
			for i := j + 1; i < n; i++ {
				v := k.l[i*n+j]
				for q := 0; q < j; q++ {
					v -= k.l[i*n+q] * k.l[j*n+q]
				}
				k.l[i*n+j] = v / d
			}
		}
		var acc float64
		for i := 0; i < n; i++ {
			v := k.b[i]
			for q := 0; q < i; q++ {
				v -= k.l[i*n+q] * k.b[q]
			}
			acc += v / k.l[i*n+i]
		}
		k.sink += acc
	}
	for p := 0; p < probePasses; p++ {
		var acc float64
		for i, v := range k.mem {
			acc += v
			k.mem[i] = v*0.999 + 0.001
		}
		k.sink += acc
	}
	for t := 0; t < probeTrips; t++ {
		b, _ := json.Marshal(k.recs)
		var back []probeRecord
		_ = json.Unmarshal(b, &back)
		sort.Slice(back, func(i, j int) bool { return back[i].Name < back[j].Name })
		k.sink += float64(len(back))
	}
}

// Package rack assembles servers into the paper's evaluation unit: a rack
// of 16 servers behind one circuit breaker and one UPS. It runs one batch
// job on each batch core, applies interactive demand to the interactive
// cores, provides the (noisy) rack power monitor, and implements the
// feedback measurement model of paper Eq. (5)–(6): batch power cannot be
// measured directly on shared servers, so it is estimated as
// p_fb = p_total − (K'·U + C').
package rack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sprintcon/internal/cpu"
	"sprintcon/internal/server"
	"sprintcon/internal/workload"
)

// CoreRef addresses one core on one server of the rack.
type CoreRef struct {
	Server int
	Core   int
}

// String formats the reference for logs.
func (r CoreRef) String() string { return fmt.Sprintf("s%d/c%d", r.Server, r.Core) }

// Config describes a rack.
type Config struct {
	// NumServers is the rack size (paper: 16).
	NumServers int
	// ServerParams applies to every server.
	ServerParams server.Params
	// InteractiveCoresPerServer and BatchCoresPerServer partition each
	// server's cores (paper physical tests: 4 workloads per server; the
	// mixed deployment runs both classes on one server, Section IV-C).
	InteractiveCoresPerServer int
	BatchCoresPerServer       int
	// MonitorNoiseStd is the relative standard deviation of the rack
	// power monitor's multiplicative error.
	MonitorNoiseStd float64
	// UtilJitterStd adds per-core noise to interactive utilization so
	// servers are not perfectly balanced.
	UtilJitterStd float64
	// Seed makes monitor noise and jitter deterministic.
	Seed int64
}

// DefaultConfig returns the paper's 16-server rack with a 4/4 split of
// interactive and batch cores per server.
func DefaultConfig() Config {
	return Config{
		NumServers:                16,
		ServerParams:              server.DefaultParams(),
		InteractiveCoresPerServer: 4,
		BatchCoresPerServer:       4,
		MonitorNoiseStd:           0.004,
		UtilJitterStd:             0.03,
		Seed:                      7,
	}
}

// Validate reports structural errors in the configuration.
func (c Config) Validate() error {
	if c.NumServers <= 0 {
		return errors.New("rack: NumServers must be positive")
	}
	if err := c.ServerParams.Validate(); err != nil {
		return err
	}
	if c.InteractiveCoresPerServer < 0 || c.BatchCoresPerServer <= 0 {
		return errors.New("rack: need non-negative interactive and positive batch cores")
	}
	if c.InteractiveCoresPerServer+c.BatchCoresPerServer > c.ServerParams.Cores {
		return fmt.Errorf("rack: %d+%d assigned cores exceed %d per server",
			c.InteractiveCoresPerServer, c.BatchCoresPerServer, c.ServerParams.Cores)
	}
	if c.MonitorNoiseStd < 0 || c.UtilJitterStd < 0 {
		return errors.New("rack: noise parameters must be non-negative")
	}
	return nil
}

// FaultState is the injected component-failure condition of one server,
// applied by the simulation engine each tick. The zero value is healthy.
type FaultState struct {
	// Offline marks a crashed server: it draws no power, executes no
	// work and reports no telemetry until it recovers.
	Offline bool
	// Stuck makes the server's DVFS actuator silently ignore writes.
	Stuck bool
	// LagFrac, when non-zero, makes each frequency write move only this
	// fraction of the way from the current frequency to the command.
	LagFrac float64
}

// Rack is the assembled simulation target.
//
// The rack owns every core's state and is its only writer: one server-major
// table, where core c of server s is entry s·Cores + c of freq and util. A
// core's class follows from its position (see class). The per-tick sweeps
// walk the table through the precomputed flat indices of the interactive
// and batch cores, and the batch jobs through the job table, which holds
// one job by value per batch core.
//
// The term table, the jobs' segment memos and the memos below are
// derived state: they follow from the core table, the fault states and the
// jobs' saved words, and never enter State, a quiescent-span state or a
// checkpoint.
type Rack struct {
	cfg   Config
	batch []CoreRef
	inter []CoreRef
	// freq and util are the core table; batchIdx and interIdx hold the
	// flat indices of batch and interactive cores in BatchCores() and
	// InteractiveCores() order; offline mirrors each core's server's
	// FaultState.Offline.
	freq     []float64
	util     []float64
	batchIdx []int
	interIdx []int
	offline  []bool
	// term holds each core's frequency factor of the power model,
	// ServerParams.FreqTerm(freq[k]); setFreq refreshes an entry when it
	// changes the core's bits.
	term []float64
	// gen is the frequency generation: incremented by every frequency
	// write that changes a core's bits (see setFreq), by SetFaultState and
	// by RestoreState. The mean memo is valid while gen holds.
	gen uint64
	// igen is the interactive generation: incremented by a write through
	// SetCoreFreq that changes an interactive core's bits, by
	// SetFaultState and by RestoreState, but not by batch writes.
	// interOK records that the last SetInteractiveFreq call, for the
	// frequency with bits interBits at interactive generation interGen,
	// changed nothing; a repeat of it is a no-op while igen holds.
	igen                uint64
	interOK             bool
	interBits, interGen uint64
	// meanGen is the generation at which meanBatch and meanInter were
	// computed; meanOK is false until the first computation.
	meanOK               bool
	meanGen              uint64
	meanBatch, meanInter float64
	// jobs is the job table: jobs[i] runs on batch core i, in
	// BatchCores() order.
	jobs []workload.BatchJob
	env  server.Environment
	rng  *rand.Rand
	// normDraws counts NormFloat64 calls on rng since construction. A
	// checkpoint records the count and a restore replays it against a
	// fresh seeded source, putting the noise stream back in the exact
	// position it had when the snapshot was taken.
	normDraws int64
	faults    []FaultState
}

// New assembles a rack with all interactive cores at peak frequency and all
// batch cores at the lowest P-state. jobs holds one job per batch core, in
// BatchCores() order; the rack keeps the slice as its job table and
// advances the jobs in place, so the caller must not use it afterwards.
func New(cfg Config, jobs []workload.BatchJob) (*Rack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nb := cfg.NumServers * cfg.BatchCoresPerServer; len(jobs) != nb {
		return nil, fmt.Errorf("rack: got %d jobs for %d batch cores", len(jobs), nb)
	}
	nc := cfg.ServerParams.Cores
	n := cfg.NumServers * nc
	r := &Rack{
		cfg:      cfg,
		jobs:     jobs,
		env:      server.Environment{AmbientC: 25},
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		freq:     make([]float64, n),
		util:     make([]float64, n),
		offline:  make([]bool, n),
		term:     make([]float64, n),
		interIdx: make([]int, 0, cfg.NumServers*cfg.InteractiveCoresPerServer),
		batchIdx: make([]int, 0, cfg.NumServers*cfg.BatchCoresPerServer),
	}
	for s := 0; s < cfg.NumServers; s++ {
		for c := 0; c < nc; c++ {
			k, ref := s*nc+c, CoreRef{Server: s, Core: c}
			r.freq[k] = cfg.ServerParams.PStates.Min()
			switch r.class(c) {
			case cpu.Interactive:
				r.freq[k] = cfg.ServerParams.PStates.Max()
				r.inter = append(r.inter, ref)
				r.interIdx = append(r.interIdx, k)
			case cpu.Batch:
				r.batch = append(r.batch, ref)
				r.batchIdx = append(r.batchIdx, k)
			}
			r.term[k] = r.cfg.ServerParams.FreqTerm(r.freq[k])
		}
	}
	r.faults = make([]FaultState, cfg.NumServers)
	return r, nil
}

// class returns the workload class of core c of any server: the first
// InteractiveCoresPerServer cores are interactive, the next
// BatchCoresPerServer are batch and the rest are idle.
func (r *Rack) class(c int) cpu.Class {
	switch {
	case c < r.cfg.InteractiveCoresPerServer:
		return cpu.Interactive
	case c < r.cfg.InteractiveCoresPerServer+r.cfg.BatchCoresPerServer:
		return cpu.Batch
	}
	return cpu.Idle
}

// Core returns the frequency (GHz), utilization and class of core ref,
// which must address a core of the rack.
func (r *Rack) Core(ref CoreRef) (freq, util float64, cl cpu.Class) {
	k := ref.Server*r.cfg.ServerParams.Cores + ref.Core
	return r.freq[k], r.util[k], r.class(ref.Core)
}

// SetFaultState applies an injected failure condition to one server.
func (r *Rack) SetFaultState(serverIdx int, st FaultState) {
	if serverIdx < 0 || serverIdx >= len(r.faults) {
		return
	}
	r.faults[serverIdx] = st
	r.syncOffline(serverIdx)
	r.gen++
	r.igen++
}

// syncOffline copies server s's Offline fault flag to its cores' entries
// of the offline table.
func (r *Rack) syncOffline(s int) {
	nc := r.cfg.ServerParams.Cores
	off := r.offline[s*nc : (s+1)*nc]
	for c := range off {
		off[c] = r.faults[s].Offline
	}
}

// FaultStateOf returns the current failure condition of one server.
func (r *Rack) FaultStateOf(serverIdx int) FaultState {
	if serverIdx < 0 || serverIdx >= len(r.faults) {
		return FaultState{}
	}
	return r.faults[serverIdx]
}

// ServerOffline reports whether a server is currently crashed. Controllers
// may use this: a dead server is detectable in practice via heartbeat loss,
// unlike a silently stuck actuator.
func (r *Rack) ServerOffline(serverIdx int) bool {
	return r.FaultStateOf(serverIdx).Offline
}

// BatchCores returns the references of all batch cores, in stable order.
func (r *Rack) BatchCores() []CoreRef { return r.batch }

// InteractiveCores returns the references of all interactive cores.
func (r *Rack) InteractiveCores() []CoreRef { return r.inter }

// SetAmbient sets the inlet air temperature seen by every server.
func (r *Rack) SetAmbient(c float64) { r.env.AmbientC = c }

// BatchJobs returns the job table: the job of each batch core, in
// BatchCores() order (shared state, not a copy).
func (r *Rack) BatchJobs() []workload.BatchJob { return r.jobs }

// ApplyInteractiveDemand sets the utilization of every interactive core
// from the demand fraction plus per-core jitter. Demand is expressed
// relative to a core at peak frequency, so a throttled core is busier for
// the same request stream: util = demand · f_max/f, clamped to 1 (the core
// saturates and requests queue). This coupling is why utilization-ordered
// sprinting (the SGCT baselines) ends up upgrading throttled interactive
// cores.
func (r *Rack) ApplyInteractiveDemand(demand float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	jitter := r.cfg.UtilJitterStd
	for _, k := range r.interIdx {
		u := demand
		if jitter > 0 {
			u += r.rng.NormFloat64() * jitter
			r.normDraws++
		}
		if r.offline[k] {
			// A crashed server serves nothing; its share of the demand
			// is lost (requests fail over outside the rack).
			r.util[k] = 0
			continue
		}
		// At f = fmax the factor is exactly 1, and multiplying by it
		// changes no bit of u.
		if f := r.freq[k]; f > 0 && f != fmax {
			u *= fmax / f
		}
		r.util[k] = cpu.ClampUtil(u)
	}
}

// SetCoreFreq is the rack's single DVFS actuation path: every frequency
// write — SprintCon's MPC moves and the baselines' theta walks alike — goes
// through it (or through SetInteractiveFreq and SetBatchFreqsInto, which
// apply the same rule), so injected actuator faults (stuck, lagging) and
// server crashes affect all policies. It returns the frequency actually
// applied, which the caller can compare against the command to detect a
// stuck actuator. A reference to a server or core the rack does not have
// writes nothing and returns 0.
func (r *Rack) SetCoreFreq(ref CoreRef, f float64) float64 {
	if ref.Server < 0 || ref.Server >= r.cfg.NumServers || ref.Core < 0 || ref.Core >= r.cfg.ServerParams.Cores {
		return 0
	}
	gen := r.gen
	q := r.setFreq(ref.Server*r.cfg.ServerParams.Cores+ref.Core, f, r.faults[ref.Server])
	if r.gen != gen && r.class(ref.Core) == cpu.Interactive {
		r.igen++
	}
	return q
}

// setFreq is the rack's one frequency write rule: it requests frequency f
// on the core at flat index k of a server in fault state st and returns the
// frequency the core then holds. A crashed server or a stuck actuator
// ignores the write; a lagging one moves only the fraction st.LagFrac of
// the way from the current frequency. A core only ever holds a P-state,
// and Quantize maps a P-state to itself, so a request for the bits the
// core already has returns at once; otherwise the request is quantized to
// the P-state table and written, and a write that changes the core's bits
// refreshes its term entry and moves the generation.
func (r *Rack) setFreq(k int, f float64, st FaultState) float64 {
	cur := r.freq[k]
	if st.Offline || st.Stuck {
		return cur
	}
	if st.LagFrac > 0 && st.LagFrac < 1 {
		f = cur + st.LagFrac*(f-cur)
	}
	if math.Float64bits(f) == math.Float64bits(cur) {
		return f
	}
	q := r.cfg.ServerParams.PStates.Quantize(f)
	if math.Float64bits(q) != math.Float64bits(cur) {
		r.gen++
		r.freq[k] = q
		r.term[k] = r.cfg.ServerParams.FreqTerm(q)
	}
	return q
}

// SetInteractiveFreq sets every interactive core to frequency f (the
// SprintCon policy keeps this at peak during sprints; SGCT baselines vary it).
// A call is a function of f, the interactive cores' frequencies and the
// fault states only, so when the previous call asked for the same bits,
// changed nothing, and the interactive generation has not moved since,
// this one would change nothing either and returns at once. Batch writes
// leave the memo standing.
func (r *Rack) SetInteractiveFreq(f float64) {
	bits := math.Float64bits(f)
	if r.interOK && r.interBits == bits && r.interGen == r.igen {
		return
	}
	gen := r.gen
	for i, ref := range r.inter {
		r.setFreq(r.interIdx[i], f, r.faults[ref.Server])
	}
	r.interOK, r.interBits, r.interGen = r.gen == gen, bits, r.igen
}

// SetBatchFreqsInto applies a frequency per batch core in BatchCores()
// order, quantized to the P-state table, and writes the applied values
// (GHz) into the preallocated applied slice (returned), for allocation-free
// control periods. applied must have the same length as freqs and may
// alias it.
func (r *Rack) SetBatchFreqsInto(freqs, applied []float64) ([]float64, error) {
	if len(freqs) != len(r.batch) {
		return nil, fmt.Errorf("rack: got %d frequencies for %d batch cores", len(freqs), len(r.batch))
	}
	if len(applied) != len(freqs) {
		return nil, fmt.Errorf("rack: applied buffer length %d for %d batch cores", len(applied), len(r.batch))
	}
	for i, ref := range r.batch {
		applied[i] = r.setFreq(r.batchIdx[i], freqs[i], r.faults[ref.Server])
	}
	return applied, nil
}

// BatchFreqs returns the current frequency of every batch core.
func (r *Rack) BatchFreqs() []float64 {
	out := make([]float64, len(r.batchIdx))
	for i, k := range r.batchIdx {
		out[i] = r.freq[k]
	}
	return out
}

// AdvanceBatch executes every job for dt seconds at its core's current
// frequency and refreshes the batch cores' utilizations from their
// workload specs (idle on a crashed server).
func (r *Rack) AdvanceBatch(dt, now float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, k := range r.batchIdx {
		if r.offline[k] {
			// A crashed server: no work executes this tick.
			r.util[k] = 0
			continue
		}
		r.jobs[i].Advance(r.freq[k], fmax, dt, now)
		r.util[k] = cpu.ClampUtil(r.jobs[i].CurrentUtil())
	}
}

// AdvanceBatchTicks executes n consecutive AdvanceBatch ticks of size dt
// starting at simulation time now0, job-major: each job runs its n ticks
// back to back before the next job. Because jobs never interact and the
// core frequencies are untouched, the end state is bit-identical to n
// interleaved AdvanceBatch calls — this is the event engine's quiescent-
// span replay kernel, reduced to the job progress arithmetic alone.
func (r *Rack) AdvanceBatchTicks(dt, now0 float64, n int) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, k := range r.batchIdx {
		if r.offline[k] {
			r.util[k] = 0
			continue
		}
		r.jobs[i].AdvanceTicks(r.freq[k], fmax, dt, now0, n)
		r.util[k] = cpu.ClampUtil(r.jobs[i].CurrentUtil())
	}
}

// BatchStableTicks returns a conservative number of upcoming ticks of size
// dt over which no batch core's reported utilization can change at the
// current frequencies: the minimum of the jobs' phase-stability
// horizons. Single-phase jobs (constant utilization across re-execution
// wraps) impose no bound. The result is capped at maxTicks.
func (r *Rack) BatchStableTicks(dt float64, maxTicks int) int {
	fmax := r.cfg.ServerParams.PStates.Max()
	min := maxTicks
	for i, k := range r.batchIdx {
		if r.offline[k] {
			continue
		}
		if n := r.jobs[i].StableTicks(r.freq[k], fmax, dt); n < min {
			min = n
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// AllBatchJobsCompleted reports whether every batch job has finished at
// least once. Completed jobs have time-independent control weights
// (RWeight is the constant re-execution urgency), which is one of the event
// engine's eligibility conditions for closing a quiescent span analytically.
func (r *Rack) AllBatchJobsCompleted() bool {
	for i := range r.jobs {
		if !r.jobs[i].Completed() {
			return false
		}
	}
	return true
}

// --- Power monitoring ------------------------------------------------------

// TruePower returns the exact rack power (measurement model, no monitor
// noise), evaluating each server's row of the term and utilization tables.
// Crashed servers draw nothing.
func (r *Rack) TruePower() float64 {
	nc := r.cfg.ServerParams.Cores
	var p float64
	for s, st := range r.faults {
		if st.Offline {
			continue
		}
		base := s * nc
		p += r.cfg.ServerParams.Power(r.term[base:base+nc], r.util[base:base+nc], r.env)
	}
	return p
}

// MeasuredPower returns the rack power monitor's reading: true power with
// multiplicative Gaussian error (paper: p_total "can be physically measured
// by a power monitor" — real monitors are a fraction of a percent off).
func (r *Rack) MeasuredPower() float64 {
	return r.Measure(r.TruePower())
}

// Measure applies the power monitor's multiplicative error to an
// already-computed true rack power. Callers that need both the true and the
// measured value in one tick use this to evaluate the measurement model
// once instead of twice; Measure(TruePower()) ≡ MeasuredPower().
func (r *Rack) Measure(trueW float64) float64 {
	if r.cfg.MonitorNoiseStd > 0 {
		trueW *= 1 + r.rng.NormFloat64()*r.cfg.MonitorNoiseStd
		r.normDraws++
	}
	return trueW
}

// --- Design-model estimators (paper Eq. 5–6) --------------------------------

// EstimateInteractivePower evaluates Eq. (5), p_inter = K'·U + C', from the
// per-core utilization monitors. It is exact only when interactive cores run
// at peak frequency and carries model error otherwise — exactly the paper's
// assumption. The conversion rounds K'·u before the add, so no host fuses
// the pair into a multiply-add wherever the loop is inlined.
func (r *Rack) EstimateInteractivePower() float64 {
	co := r.cfg.ServerParams.InteractiveCoeffs()
	var p float64
	for _, k := range r.interIdx {
		if r.offline[k] {
			// A dead server's heartbeat loss is visible to the
			// controller; its cores are excluded from the estimate so
			// Eq. (6)'s subtraction stays consistent with the monitor.
			continue
		}
		p += float64(co.KWPerGHz*r.util[k]) + co.CIdleShareW
	}
	return p
}

// EstimateIdlePower returns the design model's estimate of the power of
// unassigned (idle-class) cores: their idle share only.
func (r *Rack) EstimateIdlePower() float64 {
	perCore := r.cfg.ServerParams.IdleW / float64(r.cfg.ServerParams.Cores)
	idlePerServer := r.cfg.ServerParams.Cores - r.cfg.InteractiveCoresPerServer - r.cfg.BatchCoresPerServer
	return perCore * float64(idlePerServer*r.cfg.NumServers)
}

// BatchFeedback evaluates Eq. (6): the feedback power of batch processing,
// p_fb = p_total − p_inter − p_idle, from a total-power measurement. This is
// the controller's only view of batch power on shared servers.
func (r *Rack) BatchFeedback(measuredTotal float64) float64 {
	fb := measuredTotal - r.EstimateInteractivePower() - r.EstimateIdlePower()
	return math.Max(0, fb)
}

// RWeightsInto writes the paper's per-batch-core control-penalty weights
// R_{i,j} (dimensionless) at time now into the preallocated dst (returned),
// in BatchCores() order, for allocation-free control periods. dst must
// have one element per batch core.
func (r *Rack) RWeightsInto(dst []float64, now float64) []float64 {
	if len(dst) != len(r.batch) {
		panic(fmt.Sprintf("rack: RWeightsInto dst length %d for %d batch cores", len(dst), len(r.batch)))
	}
	for i := range r.jobs {
		dst[i] = r.jobs[i].RWeight(now)
	}
	return dst
}

// MeanBatchFreqNorm returns the batch cores' mean frequency normalized to
// peak (the paper's Fig. 7 metric).
func (r *Rack) MeanBatchFreqNorm() float64 {
	r.refreshMeans()
	return r.meanBatch
}

// MeanInteractiveFreqNorm returns the interactive cores' mean normalized
// frequency.
func (r *Rack) MeanInteractiveFreqNorm() float64 {
	r.refreshMeans()
	return r.meanInter
}

// refreshMeans recomputes both mean frequency norms when the generation has
// moved since they were last computed: they depend only on the core
// frequencies and the offline flags.
func (r *Rack) refreshMeans() {
	if r.meanOK && r.meanGen == r.gen {
		return
	}
	r.meanBatch = r.meanFreqNorm(r.batchIdx)
	r.meanInter = r.meanFreqNorm(r.interIdx)
	r.meanOK, r.meanGen = true, r.gen
}

// meanFreqNorm returns the mean normalized frequency of the cores at flat
// indices idx; a dark core executes at frequency 0.
func (r *Rack) meanFreqNorm(idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, k := range idx {
		if !r.offline[k] {
			sum += r.freq[k]
		}
	}
	return sum / float64(len(idx)) / r.cfg.ServerParams.PStates.Max()
}

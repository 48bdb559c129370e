package rack

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sprintcon/internal/cpu"
)

// The functions below are the rack's per-core sweeps written out plainly:
// each walks CoreRefs, indexing the core table at s·Cores + c (see at) and
// reading faults[ref.Server], and none remembers anything between calls. A
// reference rack driven only through them keeps its state in the same
// places the fast paths do, so the two racks can be compared core by core
// and job by job after every call. The reference computes power from the
// frequencies and leaves the term table alone.

// at returns ref's entry in the core table.
func at(r *Rack, ref CoreRef) int { return ref.Server*r.cfg.ServerParams.Cores + ref.Core }

func applyInteractiveDemandRef(r *Rack, demand float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for _, ref := range r.inter {
		u := demand
		if r.cfg.UtilJitterStd > 0 {
			u += r.rng.NormFloat64() * r.cfg.UtilJitterStd
			r.normDraws++
		}
		if r.faults[ref.Server].Offline {
			r.util[at(r, ref)] = 0
			continue
		}
		f := r.freq[at(r, ref)]
		if f > 0 {
			u *= fmax / f
		}
		r.util[at(r, ref)] = cpu.ClampUtil(u)
	}
}

// setCoreFreqRef quantizes every request that reaches the core, with no
// early return for the bits the core already holds.
func setCoreFreqRef(r *Rack, ref CoreRef, f float64) float64 {
	if ref.Server < 0 || ref.Server >= r.cfg.NumServers {
		return 0
	}
	st := r.faults[ref.Server]
	cur := r.freq[at(r, ref)]
	if st.Offline || st.Stuck {
		return cur
	}
	if st.LagFrac > 0 && st.LagFrac < 1 {
		f = cur + st.LagFrac*(f-cur)
	}
	q := r.cfg.ServerParams.PStates.Quantize(f)
	r.freq[at(r, ref)] = q
	return q
}

func setInteractiveFreqRef(r *Rack, f float64) {
	for _, ref := range r.inter {
		setCoreFreqRef(r, ref, f)
	}
}

func setBatchFreqsRef(r *Rack, freqs, applied []float64) {
	for i, ref := range r.batch {
		applied[i] = setCoreFreqRef(r, ref, freqs[i])
	}
}

func setFaultStateRef(r *Rack, serverIdx int, st FaultState) {
	if serverIdx < 0 || serverIdx >= len(r.faults) {
		return
	}
	r.faults[serverIdx] = st
}

func advanceBatchRef(r *Rack, dt, now float64) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, ref := range r.batch {
		if r.faults[ref.Server].Offline {
			r.util[at(r, ref)] = 0
			continue
		}
		f := r.freq[at(r, ref)]
		r.jobs[i].Advance(f, fmax, dt, now)
		r.util[at(r, ref)] = cpu.ClampUtil(r.jobs[i].CurrentUtil())
	}
}

// advanceBatchTicksRef runs each job's n ticks as n Advance calls.
func advanceBatchTicksRef(r *Rack, dt, now0 float64, n int) {
	fmax := r.cfg.ServerParams.PStates.Max()
	for i, ref := range r.batch {
		if r.faults[ref.Server].Offline {
			r.util[at(r, ref)] = 0
			continue
		}
		f := r.freq[at(r, ref)]
		for k := 0; k < n; k++ {
			r.jobs[i].Advance(f, fmax, dt, now0+float64(k)*dt)
		}
		r.util[at(r, ref)] = cpu.ClampUtil(r.jobs[i].CurrentUtil())
	}
}

func batchStableTicksRef(r *Rack, dt float64, maxTicks int) int {
	fmax := r.cfg.ServerParams.PStates.Max()
	min := maxTicks
	for i, ref := range r.batch {
		if r.faults[ref.Server].Offline {
			continue
		}
		f := r.freq[at(r, ref)]
		if n := r.jobs[i].StableTicks(f, fmax, dt); n < min {
			min = n
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// truePowerRef evaluates each server's row from its cores' frequencies
// through the scalar FreqTerm, not through the term table.
func truePowerRef(r *Rack) float64 {
	nc := r.cfg.ServerParams.Cores
	terms := make([]float64, nc)
	var p float64
	for s := 0; s < r.cfg.NumServers; s++ {
		if r.faults[s].Offline {
			continue
		}
		for c := range terms {
			terms[c] = r.cfg.ServerParams.FreqTerm(r.freq[at(r, CoreRef{Server: s, Core: c})])
		}
		p += r.cfg.ServerParams.Power(terms, r.util[s*nc:(s+1)*nc], r.env)
	}
	return p
}

// estimateInteractivePowerRef rounds K'·u before the add, as the fast path
// does, so the two agree on hosts that would fuse the pair.
func estimateInteractivePowerRef(r *Rack) float64 {
	co := r.cfg.ServerParams.InteractiveCoeffs()
	var p float64
	for _, ref := range r.inter {
		if r.faults[ref.Server].Offline {
			continue
		}
		u := r.util[at(r, ref)]
		p += float64(co.KWPerGHz*u) + co.CIdleShareW
	}
	return p
}

func batchFeedbackRef(r *Rack, measuredTotal float64) float64 {
	fb := measuredTotal - estimateInteractivePowerRef(r) - r.EstimateIdlePower()
	return math.Max(0, fb)
}

func meanFreqNormRef(r *Rack, refs []CoreRef) float64 {
	if len(refs) == 0 {
		return 0
	}
	var sum float64
	for _, ref := range refs {
		if r.faults[ref.Server].Offline {
			continue
		}
		sum += r.freq[at(r, ref)]
	}
	return sum / float64(len(refs)) / r.cfg.ServerParams.PStates.Max()
}

// restoreStateRef is RestoreState's apply half as it was, for snapshots
// ExportState wrote (so there is nothing to validate).
func restoreStateRef(t *testing.T, r *Rack, st State) {
	for si, cores := range st.Cores {
		for ci, cs := range cores {
			ref := CoreRef{Server: si, Core: ci}
			r.freq[at(r, ref)] = r.cfg.ServerParams.PStates.Quantize(cs.FreqGHz)
			r.util[at(r, ref)] = cpu.ClampUtil(cs.Util)
		}
	}
	copy(r.faults, st.Faults)
	r.rng = rand.New(rand.NewSource(r.cfg.Seed))
	for i := int64(0); i < st.NormDraws; i++ {
		r.rng.NormFloat64()
	}
	r.normDraws = st.NormDraws
	for i := range r.jobs {
		if err := r.jobs[i].RestoreState(st.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// refConfigs are the rack shapes the equivalence harness drives: the
// paper's rack, one with no interactive cores and idle cores, and one with
// idle cores and no noise.
func refConfigs() []Config {
	paper := DefaultConfig()
	paper.Seed = 11

	noInter := DefaultConfig()
	noInter.NumServers = 3
	noInter.InteractiveCoresPerServer = 0
	noInter.BatchCoresPerServer = 3
	noInter.Seed = 5

	idle := DefaultConfig()
	idle.NumServers = 4
	idle.InteractiveCoresPerServer = 2
	idle.BatchCoresPerServer = 3
	idle.MonitorNoiseStd = 0
	idle.UtilJitterStd = 0
	return []Config{paper, noInter, idle}
}

// refPair is a rack driven through its fast paths and a rack of the same
// configuration driven through the reference sweeps above.
type refPair struct {
	t         *testing.T
	fast, ref *Rack
	now       float64
	snapFast  []State
	snapRef   []State
	applied   [2][]float64
}

func newRefPair(t *testing.T, cfg Config) *refPair {
	t.Helper()
	p := &refPair{t: t}
	for _, r := range []**Rack{&p.fast, &p.ref} {
		rk, err := New(cfg, testJobs(t, cfg, func(i int) float64 { return 300 + float64(i%7)*40 }))
		if err != nil {
			t.Fatal(err)
		}
		*r = rk
	}
	n := len(p.fast.BatchCores())
	p.applied = [2][]float64{make([]float64, n), make([]float64, n)}
	return p
}

// refOps names the harness's operations, in the order the op byte selects
// them.
const (
	opDemand = iota
	opInterFreq
	opBatchFreqs
	opFault
	opAdvance
	opAdvanceTicks
	opStableTicks
	opSnapshot
	opRestore
	opCoreFreq
	opMeasure
	numOps
)

// interTargets are SetInteractiveFreq's targets: P-states, values between
// them, and a request below the table.
var interTargets = []float64{2.0, 2.0, 1.0, 1.5, 0.4, 1.23, 0.05}

// faultStates covers healthy, crashed, stuck and lagging servers; a lag of
// 0.01 moves less than half a P-state, so its writes quantize back to the
// frequency the core holds.
var faultStates = []FaultState{
	{}, {Offline: true}, {Stuck: true}, {LagFrac: 0.5}, {LagFrac: 0.01}, {LagFrac: 0.3, Stuck: true}, {Offline: true, LagFrac: 0.5},
}

// step applies operation op, with arguments drawn from arg, to both racks
// and compares every observable after it.
func (p *refPair) step(op int, arg func() int) {
	t, fast, ref := p.t, p.fast, p.ref
	const dt = 1.0
	switch op {
	case opDemand:
		d := float64(arg()) / 170
		fast.ApplyInteractiveDemand(d)
		applyInteractiveDemandRef(ref, d)
	case opInterFreq:
		f := interTargets[arg()%len(interTargets)]
		fast.SetInteractiveFreq(f)
		setInteractiveFreqRef(ref, f)
	case opBatchFreqs:
		rng := rand.New(rand.NewSource(int64(arg())))
		freqs := make([]float64, len(fast.BatchCores()))
		for i := range freqs {
			freqs[i] = 0.2 + 2*rng.Float64()
		}
		if _, err := fast.SetBatchFreqsInto(freqs, p.applied[0]); err != nil {
			t.Fatal(err)
		}
		setBatchFreqsRef(ref, freqs, p.applied[1])
		for i := range freqs {
			if math.Float64bits(p.applied[0][i]) != math.Float64bits(p.applied[1][i]) {
				t.Fatalf("SetBatchFreqsInto applied[%d] = %v, reference %v", i, p.applied[0][i], p.applied[1][i])
			}
		}
	case opFault:
		s := arg() % fast.cfg.NumServers
		st := faultStates[arg()%len(faultStates)]
		fast.SetFaultState(s, st)
		setFaultStateRef(ref, s, st)
	case opAdvance:
		fast.AdvanceBatch(dt, p.now)
		advanceBatchRef(ref, dt, p.now)
		p.now += dt
	case opAdvanceTicks:
		n := 1 + arg()%8
		fast.AdvanceBatchTicks(dt, p.now, n)
		advanceBatchTicksRef(ref, dt, p.now, n)
		p.now += float64(n) * dt
	case opStableTicks:
		max := arg()
		if got, want := fast.BatchStableTicks(dt, max), batchStableTicksRef(ref, dt, max); got != want {
			t.Fatalf("BatchStableTicks = %d, reference %d", got, want)
		}
	case opSnapshot:
		p.snapFast = append(p.snapFast, fast.ExportState())
		p.snapRef = append(p.snapRef, ref.ExportState())
	case opRestore:
		if len(p.snapFast) == 0 {
			return
		}
		i := arg() % len(p.snapFast)
		if err := fast.RestoreState(p.snapFast[i]); err != nil {
			t.Fatal(err)
		}
		restoreStateRef(t, ref, p.snapRef[i])
	case opCoreFreq:
		cref := CoreRef{Server: arg() % fast.cfg.NumServers, Core: arg() % fast.cfg.ServerParams.Cores}
		f := 0.3 + float64(arg())/140
		if got, want := fast.SetCoreFreq(cref, f), setCoreFreqRef(ref, cref, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SetCoreFreq(%v, %v) = %v, reference %v", cref, f, got, want)
		}
	case opMeasure:
		got, want := fast.Measure(fast.TruePower()), ref.Measure(truePowerRef(ref))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Measure = %v, reference %v", got, want)
		}
	}
	p.compare(op)
}

// sameWords compares two values of one type field by field and element by
// element, floats by math.Float64bits, and names the first field that
// differs.
func sameWords(a, b reflect.Value, path string) (string, bool) {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if at, ok := sameWords(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); !ok {
				return at, false
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s = %v, reference %v", path, a.Float(), b.Float()), false
		}
	case reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s = %#x, reference %#x", path, a.Uint(), b.Uint()), false
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s = %v, reference %v", path, a.Bool(), b.Bool()), false
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s = %d, reference %d", path, a.Int(), b.Int()), false
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s = %q, reference %q", path, a.String(), b.String()), false
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s has %d elements, reference %d", path, a.Len(), b.Len()), false
		}
		for i := 0; i < a.Len(); i++ {
			if at, ok := sameWords(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return at, false
			}
		}
	default:
		panic("sameWords: unhandled kind " + a.Kind().String() + " at " + path)
	}
	return "", true
}

// compare checks, by math.Float64bits, every core's frequency, utilization
// and term entry, the power readings and estimators, both mean norms, the
// noise-stream position, every word of every job and every job's
// accessors.
func (p *refPair) compare(op int) {
	t, fast, ref := p.t, p.fast, p.ref
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after op %d: %s = %v (%#x), reference %v (%#x)", op, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	nc := fast.cfg.ServerParams.Cores
	for k := range fast.freq {
		if math.Float64bits(fast.freq[k]) != math.Float64bits(ref.freq[k]) || math.Float64bits(fast.util[k]) != math.Float64bits(ref.util[k]) {
			t.Fatalf("after op %d: core s%d/c%d at %v GHz, util %v; reference %v GHz, util %v",
				op, k/nc, k%nc, fast.freq[k], fast.util[k], ref.freq[k], ref.util[k])
		}
		same(fmt.Sprintf("term of core s%d/c%d", k/nc, k%nc), fast.term[k], fast.cfg.ServerParams.FreqTerm(fast.freq[k]))
	}
	tp := fast.TruePower()
	same("TruePower", tp, truePowerRef(ref))
	same("EstimateInteractivePower", fast.EstimateInteractivePower(), estimateInteractivePowerRef(ref))
	same("BatchFeedback", fast.BatchFeedback(tp), batchFeedbackRef(ref, tp))
	same("MeanBatchFreqNorm", fast.MeanBatchFreqNorm(), meanFreqNormRef(ref, ref.batch))
	same("MeanInteractiveFreqNorm", fast.MeanInteractiveFreqNorm(), meanFreqNormRef(ref, ref.inter))
	if fast.normDraws != ref.normDraws {
		t.Fatalf("after op %d: normDraws = %d, reference %d", op, fast.normDraws, ref.normDraws)
	}
	fmax := fast.cfg.ServerParams.PStates.Max()
	for i := range fast.BatchJobs() {
		j, rj := &fast.BatchJobs()[i], &ref.BatchJobs()[i]
		if at, ok := sameWords(reflect.ValueOf(*j), reflect.ValueOf(*rj), fmt.Sprintf("job %d", i)); !ok {
			t.Fatalf("after op %d: %s", op, at)
		}
		same("Progress", j.Progress(), rj.Progress())
		same("WorkDone", j.WorkDone(), rj.WorkDone())
		same("CurrentUtil", j.CurrentUtil(), rj.CurrentUtil())
		same("RWeight", j.RWeight(p.now), rj.RWeight(p.now))
		same("RequiredFreq", j.RequiredFreq(p.now, fmax), rj.RequiredFreq(p.now, fmax))
		a, b := j.ExportState(), rj.ExportState()
		for _, f := range [][2]float64{
			{a.StartTime, b.StartTime}, {a.Deadline, b.Deadline}, {a.TotalWork, b.TotalWork},
			{a.Remaining, b.Remaining}, {a.DoneAt, b.DoneAt}, {a.ExecSecs, b.ExecSecs},
		} {
			same("job state", f[0], f[1])
		}
		if a.Completed != b.Completed {
			t.Fatalf("after op %d: job %d completed %d times, reference %d", op, i, a.Completed, b.Completed)
		}
	}
}

// runRefBytes drives a rack pair from data: the first byte picks the
// configuration, then each operation is one op byte followed by the
// argument bytes it reads (zero once data runs out).
func runRefBytes(t *testing.T, data []byte) {
	cfgs := refConfigs()
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	p := newRefPair(t, cfgs[next()%len(cfgs)])
	for ops := 0; pos < len(data) && ops < 400; ops++ {
		p.step(next()%numOps, next)
	}
}

// The fast sweeps and memos must match the reference sweeps bit for bit
// over generated call sequences on every rack shape.
func TestRackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for seq := 0; seq < 300; seq++ {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		// Bias toward the operations that run every tick, so jobs
		// complete and the interactive memo repeats.
		for i := 1; i < len(data); i += 3 {
			if rng.Intn(2) == 0 {
				data[i] = byte([]int{opDemand, opInterFreq, opAdvance, opInterFreq}[rng.Intn(4)])
			}
		}
		runRefBytes(t, data)
	}
}

// A fault state or a restore that changes no frequency must still end
// the interactive memo and the mean caches: each sequence sets up a memo
// of a call that changed nothing, then changes only fault states.
func TestRackMemosFollowFaultsAndRestores(t *testing.T) {
	arg := func(vals ...int) func() int {
		return func() int {
			v := vals[0]
			vals = vals[1:]
			return v
		}
	}
	const stuck, offline, healthy = 2, 1, 0
	const lagBack = 4 // LagFrac 0.01
	const f1 = 2      // interTargets[2] = 1.0
	for _, fault := range []int{stuck, offline, lagBack} {
		// Through SetFaultState.
		p := newRefPair(t, refConfigs()[0])
		p.step(opFault, arg(0, fault))
		p.step(opInterFreq, arg(f1))
		p.step(opInterFreq, arg(f1)) // changes nothing: memo set
		p.step(opFault, arg(0, healthy))
		p.step(opInterFreq, arg(f1))

		// Through RestoreState: the snapshot differs from the live
		// rack only in server 0's fault state.
		p = newRefPair(t, refConfigs()[0])
		p.step(opFault, arg(0, fault))
		p.step(opInterFreq, arg(f1))
		p.step(opFault, arg(0, healthy))
		p.step(opSnapshot, nil)
		p.step(opFault, arg(0, fault))
		p.step(opInterFreq, arg(f1))
		p.step(opInterFreq, arg(f1))
		p.step(opRestore, arg(0))
		p.step(opInterFreq, arg(f1))
	}

	// A batch write that changes bits leaves the interactive memo valid;
	// an interactive write, a fault and a restore each end it.
	memo := func(p *refPair) bool { return p.fast.interOK && p.fast.interGen == p.fast.igen }
	p := newRefPair(t, refConfigs()[0])
	p.step(opSnapshot, nil)
	for i, end := range []func(){
		func() { p.step(opCoreFreq, arg(3, 1, 50)) }, // core 1 of server 3 is interactive
		func() { p.step(opFault, arg(2, stuck)) },
		func() { p.step(opRestore, arg(0)) },
	} {
		p.step(opInterFreq, arg(f1))
		p.step(opInterFreq, arg(f1))
		if !memo(p) {
			t.Fatal("a repeated SetInteractiveFreq that changed nothing set no memo")
		}
		gen := p.fast.gen
		p.step(opBatchFreqs, arg(9+i))
		if p.fast.gen == gen {
			t.Fatal("the batch write changed no bits")
		}
		if !memo(p) {
			t.Fatal("a batch write ended the interactive memo")
		}
		p.step(opInterFreq, arg(f1))
		end()
		if memo(p) {
			t.Fatal("the interactive memo outlived an interactive write, a fault or a restore")
		}
		p.step(opInterFreq, arg(f1))
	}
}

// A core reference past either end of a server writes nothing and returns
// 0, as a server reference out of range does.
func TestSetCoreFreqOutOfRangeCore(t *testing.T) {
	r := mustNew(t)
	cores := r.cfg.ServerParams.Cores
	before := append([]float64(nil), r.freq...)
	gen := r.gen
	for _, s := range []int{0, r.cfg.NumServers - 1} {
		for _, c := range []int{-1, cores, cores + 1} {
			if got := r.SetCoreFreq(CoreRef{Server: s, Core: c}, 1.0); got != 0 {
				t.Fatalf("SetCoreFreq(s%d/c%d) = %v, want 0", s, c, got)
			}
		}
	}
	for k, f := range r.freq {
		if math.Float64bits(f) != math.Float64bits(before[k]) {
			t.Fatalf("core %d moved from %v to %v", k, before[k], f)
		}
	}
	if r.gen != gen {
		t.Fatalf("generation moved from %d to %d", gen, r.gen)
	}
}

// FuzzRackMatchesReference drives TestRackMatchesReference's harness from
// fuzz bytes.
func FuzzRackMatchesReference(f *testing.F) {
	f.Add([]byte{0, opDemand, 120, opInterFreq, 2, opInterFreq, 2, opAdvance, opMeasure})
	f.Add([]byte{1, opBatchFreqs, 7, opFault, 1, 1, opAdvanceTicks, 5, opStableTicks, 9, opSnapshot, opFault, 1, 0, opRestore, 0})
	f.Add([]byte{2, opFault, 0, 4, opInterFreq, 2, opInterFreq, 2, opFault, 0, 0, opInterFreq, 2, opCoreFreq, 3, 5, 99})
	// Batch frequencies change in the middle of the multi-phase jobs'
	// segments, between ticks and between spans of ticks.
	f.Add([]byte{0, opBatchFreqs, 1, opAdvance, opAdvance, opAdvance, opBatchFreqs, 2, opAdvance, opStableTicks, 50,
		opAdvanceTicks, 6, opBatchFreqs, 3, opAdvanceTicks, 7, opAdvance, opBatchFreqs, 4, opAdvance, opMeasure})
	f.Fuzz(func(t *testing.T, data []byte) {
		runRefBytes(t, data)
	})
}

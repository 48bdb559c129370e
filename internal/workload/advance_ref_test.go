package workload

import (
	"math"
	"math/rand"
	"testing"
)

// advanceRef is BatchJob.Advance as it was before the job remembered its
// segment: every call walks the phases from phaseIndexAt. The fast path
// must reproduce it bit for bit.
func advanceRef(j *BatchJob, f, fmax, dt, now float64) {
	if dt < 0 {
		panic("workload: negative dt")
	}
	j.execSecs += dt
	timeLeft := dt
	for timeLeft > 1e-12 {
		pos := j.totalWork - j.remaining
		idx := j.Spec.phaseIndexAt(pos, j.totalWork)
		rate := phaseRate(j.Spec.phases()[idx], f, fmax)
		if rate <= 0 {
			return
		}
		segWork := j.Spec.phaseEndWork(idx, j.totalWork) - pos
		if segWork > j.remaining {
			segWork = j.remaining
		}
		segTime := segWork / rate
		if segTime > timeLeft {
			j.remaining -= rate * timeLeft
			return
		}
		timeLeft -= segTime
		j.remaining -= segWork
		if j.remaining <= 1e-9 {
			t := now + (dt - timeLeft)
			if math.IsNaN(j.doneAt) {
				j.doneAt = t
			}
			j.completed++
			j.remaining = j.totalWork
		}
	}
}

// currentUtilRef is CurrentUtil without the remembered segment.
func currentUtilRef(j *BatchJob) float64 {
	pos := j.totalWork - j.remaining
	return j.Spec.phases()[j.Spec.phaseIndexAt(pos, j.totalWork)].Util
}

// randomPhasedSpec draws a spec with one to six phases of random length,
// memory-boundness and utilization.
func randomPhasedSpec(rng *rand.Rand) BatchSpec {
	phases := make([]Phase, 1+rng.Intn(6))
	var sum float64
	for i := range phases {
		phases[i] = Phase{Frac: 0.02 + rng.Float64(), MemBound: 0.95 * rng.Float64(), Util: 0.05 + 0.95*rng.Float64()}
		sum += phases[i].Frac
	}
	for i := range phases {
		phases[i].Frac /= sum
	}
	return BatchSpec{Name: "random", MemBound: 0.3, Util: 0.9, PeakSeconds: 10 + 990*rng.Float64(), Phases: phases}
}

// advanceSpecs returns the multi-phase SPEC models, one single-phase model
// and n random phase lists.
func advanceSpecs(rng *rand.Rand, n int) []BatchSpec {
	var specs []BatchSpec
	for _, s := range SpecCPU2006() {
		if len(s.Phases) > 1 || s.Name == "444.namd" {
			specs = append(specs, s)
		}
	}
	for i := 0; i < n; i++ {
		specs = append(specs, randomPhasedSpec(rng))
	}
	return specs
}

// advancePair drives a job through the fast path and a twin through the
// reference copies, failing at the first bit that differs.
type advancePair struct {
	t         *testing.T
	fast, ref *BatchJob
	fmax      float64
	now       float64
	ticks     int
}

func newAdvancePair(t *testing.T, spec BatchSpec, scale float64) *advancePair {
	t.Helper()
	fast, err := NewBatchJob(spec, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewBatchJob(spec, 0, 1e6)
	fast.ScaleWork(scale)
	ref.ScaleWork(scale)
	return &advancePair{t: t, fast: &fast, ref: &ref, fmax: 2}
}

func (p *advancePair) check(what string) {
	p.t.Helper()
	a, b := p.fast, p.ref
	if !jobStateEqual(a, b) {
		p.t.Fatalf("%s: %s after %d ticks: fast rem=%x exec=%x done=%x comp=%d, reference rem=%x exec=%x done=%x comp=%d",
			a.Spec.Name, what, p.ticks,
			math.Float64bits(a.remaining), math.Float64bits(a.execSecs), math.Float64bits(a.doneAt), a.completed,
			math.Float64bits(b.remaining), math.Float64bits(b.execSecs), math.Float64bits(b.doneAt), b.completed)
	}
	if u, w := a.CurrentUtil(), currentUtilRef(b); math.Float64bits(u) != math.Float64bits(w) {
		p.t.Fatalf("%s: %s after %d ticks: CurrentUtil %v, reference %v", a.Spec.Name, what, p.ticks, u, w)
	}
}

func (p *advancePair) advance(f, dt float64) {
	p.t.Helper()
	p.fast.Advance(f, p.fmax, dt, p.now)
	advanceRef(p.ref, f, p.fmax, dt, p.now)
	p.now += dt
	p.ticks++
	p.check("Advance")
}

func (p *advancePair) advanceTicks(f, dt float64, n int) {
	p.t.Helper()
	p.fast.AdvanceTicks(f, p.fmax, dt, p.now, n)
	for k := 0; k < n; k++ {
		advanceRef(p.ref, f, p.fmax, dt, p.now+float64(k)*dt)
	}
	p.now += float64(n) * dt
	p.ticks += n
	p.check("AdvanceTicks")
}

// restore puts both jobs at a position pos of the current execution (with
// their other state unchanged) through RestoreState.
func (p *advancePair) restore(pos float64) {
	p.t.Helper()
	st := p.ref.ExportState()
	st.Remaining = math.Min(st.TotalWork, math.Max(0, st.TotalWork-pos))
	if err := p.fast.RestoreState(st); err != nil {
		p.t.Fatal(err)
	}
	if err := p.ref.RestoreState(st); err != nil {
		p.t.Fatal(err)
	}
	p.check("RestoreState")
}

// drawFreq draws a next frequency: mostly the current one (the fast path's
// case), else a P-state, an off-table value, zero, a negative or one above
// fmax.
func drawFreq(rng *rand.Rand, cur float64) float64 {
	switch r := rng.Float64(); {
	case r < 0.6:
		return cur
	case r < 0.8:
		return 0.4 + 0.1*float64(rng.Intn(17))
	case r < 0.9:
		return 0.1 + 1.9*rng.Float64()
	case r < 0.94:
		return 0
	case r < 0.97:
		return -rng.Float64()
	default:
		return 2 + rng.Float64()
	}
}

// drawDt draws a tick length: mostly 1 or 0.5 s, sometimes long enough to
// cross several phases or complete, sometimes at or below Advance's 1e-12
// floor, or just above it where rate·dt < 1e-12.
func drawDt(rng *rand.Rand) float64 {
	switch r := rng.Float64(); {
	case r < 0.5:
		return 1
	case r < 0.7:
		return 0.5
	case r < 0.8:
		return 50 * rng.Float64()
	case r < 0.85:
		return []float64{0, 1e-13, 1e-12, math.Nextafter(1e-12, 0)}[rng.Intn(4)]
	case r < 0.9:
		return 1e-12 + 4e-12*rng.Float64()
	default:
		return 3 * rng.Float64()
	}
}

// Advance and CurrentUtil must match the reference copies bit for bit on
// generated schedules: multi-phase and random specs, f changing between
// ticks, tiny and long dt, completions and wraps, AdvanceTicks chunks and
// RestoreState in the middle of a run.
func TestAdvanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, spec := range advanceSpecs(rng, 40) {
		p := newAdvancePair(t, spec, 0.05+0.5*rng.Float64())
		f := 0.4 + 0.1*float64(rng.Intn(17))
		for step := 0; step < 3000; step++ {
			f = drawFreq(rng, f)
			switch r := rng.Float64(); {
			case r < 0.9:
				p.advance(f, drawDt(rng))
			case r < 0.97:
				p.advanceTicks(f, drawDt(rng), 1+rng.Intn(40))
			default:
				p.restore(p.fast.totalWork * rng.Float64())
			}
		}
		if p.fast.completed == 0 {
			t.Fatalf("%s: no completion; the schedule did not exercise wraps", spec.Name)
		}
	}
}

// Ticks that land within a few ulps of 1e-12 of a phase end, of the end of
// the work (completion) or just past it must take the same branches as the
// reference: the fast path's position test is phaseIndexAt's own.
func TestAdvanceNearPhaseEndsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	offsets := []float64{0, 1e-13, 5e-13, 9e-13, 1e-12, 1.1e-12, 1.5e-12, 2e-12, 1e-11, -1e-13, -1e-12}
	for _, spec := range advanceSpecs(rng, 10) {
		p := newAdvancePair(t, spec, 0.1+rng.Float64())
		total := p.fast.totalWork
		for idx := range spec.phases() {
			end := spec.phaseEndWork(idx, total)
			for _, off := range offsets {
				f := 0.4 + 0.1*float64(rng.Intn(17))
				rate := phaseRate(spec.phases()[idx], f, p.fmax)
				// Enter the phase's segment with a fresh tick, then land
				// off short of its end with one tick of the exact length.
				start := spec.phaseEndWork(idx-1, total) // 0 for idx 0
				p.restore(start + 0.5*(end-start))
				p.advance(f, 1e-6)
				pos := p.fast.totalWork - p.fast.remaining
				if dt := (end - off - pos) / rate; dt >= 0 {
					p.advance(f, dt)
				}
				// Ticks short enough to stay within 1e-12 of the end, then
				// ones that cross it.
				for _, dt := range []float64{2e-12, 1.5e-12, 3e-12} {
					p.advance(f, dt)
				}
				for k := 0; k < 3; k++ {
					p.advance(f, 1e-3*rng.Float64())
				}
			}
		}
	}
}

// A frequency change inside a segment keeps the memo: the tick after it
// recomputes only the rate from the remembered memory-boundness, and stays
// bit-identical to the walk. Requests far below the table make rate·dt
// subnormal, where the in-segment test keeps its division; f ≤ 0 makes no
// progress.
func TestAdvanceKeepsSegmentAcrossFrequencyChanges(t *testing.T) {
	p := newAdvancePair(t, SpecCPU2006()[2], 1) // gcc: a 104 s first phase
	p.advance(1.0, 1)
	for _, f := range []float64{1.5, 0.4, 2, 2.5, 0, -1, 1.1, 5e-301, 1e-290, 0.7} {
		dt := 1.0
		if f < 1e-200 {
			dt = 1e-9
		}
		p.advance(f, dt)
		if !p.fast.seg.ok {
			t.Fatalf("f = %v: the segment memo was dropped", f)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for _, spec := range advanceSpecs(rng, 20) {
		p := newAdvancePair(t, spec, 0.05+rng.Float64())
		for step := 0; step < 400; step++ {
			f := 0.4 + 0.1*float64(rng.Intn(17))
			if rng.Intn(8) == 0 {
				f = []float64{5e-301, 3e-305, 1e-290}[rng.Intn(3)]
			}
			dt := 1.0
			if f < 1 && rng.Intn(2) == 0 {
				dt = 1e-9
			}
			p.advance(f, dt)
		}
	}
}

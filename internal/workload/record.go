package workload

import (
	"errors"
	"math"
)

// Record holds the words of a batch job that change every tick: the work
// accounting (total and remaining work, execution seconds) and the segment
// memo. A new job owns its record. Binding the job to a core moves the
// record into a slot of a contiguous table the rack owns (Bind), so the
// rack's per-tick sweeps walk the table instead of chasing one pointer per
// core, and every *BatchJob accessor reads the same words through the job's
// pointer to its slot. The memo is derived state: ExportState leaves it
// out and RestoreState clears it.
type Record struct {
	job       *BatchJob // the job these words belong to; nil in an empty slot
	totalWork float64   // peak-seconds to complete once
	remaining float64
	execSecs  float64 // wall seconds spent executing
	bound     bool    // the record is a slot of a rack's table
	seg       segment
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

// Bind moves j's record into p, a slot of a rack's record table; from then
// on j's accessors and the rack read and write p. The job p held before,
// if any, gets a record of its own back. A job can be bound to one slot
// only.
func (p *Record) Bind(j *BatchJob) error {
	if j.rec == p {
		return nil
	}
	if j.rec.bound {
		return errors.New("workload: " + j.Spec.Name + ": job is already bound to a core")
	}
	if old := p.job; old != nil {
		own := *p
		own.bound = false
		old.rec = &own
	}
	*p = *j.rec
	p.bound = true
	j.rec = p
	return nil
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
func (p *Record) Advance(f, fmax, dt, now float64) {
	if dt < 0 {
		panic("workload: negative dt")
	}
	p.execSecs += dt
	if sg := &p.seg; sg.ok && dt > 1e-12 {
		if math.Float64bits(f) != sg.f || math.Float64bits(fmax) != sg.fmax {
			sg.f, sg.fmax = math.Float64bits(f), math.Float64bits(fmax)
			sg.rate = phaseRate(Phase{MemBound: sg.memBound}, f, fmax)
		}
		pos := p.totalWork - p.remaining
		if pos < sg.end-1e-12 {
			if sg.rate <= 0 {
				return // the walk makes no progress in this phase
			}
			segWork := sg.end - pos
			if segWork > p.remaining {
				segWork = p.remaining
			}
			if step := sg.rate * dt; inSegment(segWork, sg.rate, step, dt) {
				p.remaining -= step
				return
			}
		}
	}
	p.walk(f, fmax, dt, now)
}

// walk is Advance's segment walk: it executes dt seconds from the current
// position phase by phase and remembers the segment it ends in.
func (p *Record) walk(f, fmax, dt, now float64) {
	j := p.job
	p.seg.ok = false
	timeLeft := dt
	for timeLeft > 1e-12 {
		pos := p.totalWork - p.remaining
		idx := j.Spec.phaseIndexAt(pos, p.totalWork)
		ph := j.Spec.phases()[idx]
		rate := phaseRate(ph, f, fmax)
		if rate <= 0 {
			return
		}
		end := j.Spec.phaseEndWork(idx, p.totalWork)
		segWork := end - pos
		if segWork > p.remaining {
			segWork = p.remaining
		}
		segTime := segWork / rate
		if segTime > timeLeft {
			p.remaining -= rate * timeLeft
			p.seg = segment{ok: true, f: math.Float64bits(f), fmax: math.Float64bits(fmax),
				rate: rate, end: end, util: ph.Util, memBound: ph.MemBound}
			return
		}
		timeLeft -= segTime
		p.remaining -= segWork
		if p.remaining <= 1e-9 {
			t := now + (dt - timeLeft) // within-step completion time
			if math.IsNaN(j.doneAt) {
				j.doneAt = t
			}
			j.completed++
			p.remaining = p.totalWork // re-execute immediately
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
func (p *Record) AdvanceTicks(f, fmax, dt, now0 float64, n int) {
	sg := &p.seg
	for k := 0; k < n; k++ {
		p.Advance(f, fmax, dt, now0+float64(k)*dt)
		if !sg.ok || !(dt > 1e-12) || sg.rate <= 0 {
			continue
		}
		step := sg.rate * dt
		for k+1 < n {
			pos := p.totalWork - p.remaining
			if !(pos < sg.end-1e-12) {
				break
			}
			segWork := sg.end - pos
			if segWork > p.remaining {
				segWork = p.remaining
			}
			if !inSegment(segWork, sg.rate, step, dt) {
				break
			}
			p.execSecs += dt
			p.remaining -= step
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
func (p *Record) StableTicks(f, fmax, dt float64) int {
	const unbounded = math.MaxInt32
	spec := &p.job.Spec
	phases := spec.phases()
	if len(phases) == 1 {
		return unbounded
	}
	pos := p.totalWork - p.remaining
	idx := spec.phaseIndexAt(pos, p.totalWork)
	rate := phaseRate(phases[idx], f, fmax)
	if rate <= 0 {
		return unbounded // no progress at f ≤ 0: the phase cannot change
	}
	segWork := spec.phaseEndWork(idx, p.totalWork) - pos
	if segWork > p.remaining {
		segWork = p.remaining
	}
	n := int(segWork/rate/dt) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// CurrentUtil returns the utilization of the job's current phase. While
// the position is inside the segment the last Advance ended in, by
// phaseIndexAt's own test, that segment's phase is the current one.
func (p *Record) CurrentUtil() float64 {
	if p.seg.ok && p.totalWork-p.remaining < p.seg.end-1e-12 {
		return p.seg.util
	}
	return p.job.CurrentPhase().Util
}

package telemetry

import "sync"

// DecisionLog keeps decision records exactly, unencoded, for
// replay-then-follow readers: a sink made by NewDecisionLogSink copies
// each record in from the simulation goroutine, and readers render the
// records they serve with AppendDecision, so a stream nobody reads is
// never formatted. A kept record renders to the bytes the encoding sink
// would have written for it.
//
// A kept record is flat: its scalars and sections inline (floats as
// 8-byte words), Policy and Mode by string header, and its ref_traj_w,
// r_weights and freqs_ghz elements in float slabs the log shares across
// records (one for the F slices, one for the float64 ones). Records
// themselves live in chunks and are indexed by pointer, so growing the
// index copies a pointer per record, never the record. Slabs and chunks
// start small and double up to slabFloats and chunkRecs elements, so
// memory is allocated once per many records, not per record, and a short
// stream (or the first control period of many streams) does not pay for a
// full slab. A published record is never written again, so readers render
// outside the lock.
//
// The log is bounded: beyond max records the oldest are dropped (the
// writer — the simulation — must never block or grow without bound
// because a stream has no reader, or a slow one). Readers that fall
// behind the drop horizon skip forward.
type DecisionLog struct {
	mu     sync.Mutex
	recs   []*keptDecision
	chunk  []keptDecision // where the next records are kept
	first  int            // global index of recs[0]: the records dropped so far
	max    int            // 0 = unbounded
	closed bool
	// wake is made by Next for its followers and closed (then dropped) on
	// the next append or the close; with no follower it stays nil.
	wake chan struct{}
	// floats and fs are the slabs the next records' float64 and F slices
	// are copied into.
	floats []float64
	fs     []F
}

// slabFloats is the full length of one float slab: about 30 records of a
// 64-core rack's r_weights, or of its ref_traj_w and freqs_ghz.
const slabFloats = 2048

// chunkRecs is the full length of one record chunk (76 KiB on 64-bit).
const chunkRecs = 256

// keptDecision is one kept record: a Decision with its sections inline
// (has says which are present) and its MPC slices in the float slab.
type keptDecision struct {
	schema       int
	t            float64
	policy, mode string
	has          uint8
	alloc        AllocDecision
	mpc          MPCDecision
	guard        GuardVerdict
	ups          UPSDecision
}

// Sections present in a keptDecision.
const (
	hasAlloc = 1 << iota
	hasMPC
	hasGuard
	hasUPS
)

// DecisionBatch is a run of kept records, as Next returns them.
type DecisionBatch []*keptDecision

// Decision returns record i. Its sections and slices share the log's
// memory: read them, never modify them.
func (b DecisionBatch) Decision(i int) Decision {
	k := b[i]
	d := Decision{Schema: k.schema, T: k.t, Policy: k.policy, Mode: k.mode}
	if k.has&hasAlloc != 0 {
		d.Alloc = &k.alloc
	}
	if k.has&hasMPC != 0 {
		d.MPC = &k.mpc
	}
	if k.has&hasGuard != 0 {
		d.Guard = &k.guard
	}
	if k.has&hasUPS != 0 {
		d.UPS = &k.ups
	}
	return d
}

// NewDecisionLog returns a log retaining at most max records (0 =
// unbounded).
func NewDecisionLog(max int) *DecisionLog {
	return &DecisionLog{max: max}
}

// NewDecisionLogSink returns a sink keeping each decision in l instead of
// encoding it. It fails at the same record as NewDecisionSink's encoder,
// with the same error: a NaN or infinity in a plain float64 field.
func NewDecisionLogSink(l *DecisionLog) *DecisionSink {
	return &DecisionSink{log: l}
}

// keep copies d into the log, or returns the error AppendDecision would
// return for it (and keeps nothing).
func (l *DecisionLog) keep(d *Decision) error {
	if !encodable(d) {
		if _, err := AppendDecision(nil, d); err != nil {
			return err
		}
	}
	l.mu.Lock()
	if len(l.chunk) == cap(l.chunk) {
		l.chunk = make([]keptDecision, 0, min(max(2*cap(l.chunk), 1), chunkRecs))
	}
	l.chunk = l.chunk[:len(l.chunk)+1]
	k := &l.chunk[len(l.chunk)-1]
	*k = keptDecision{schema: d.Schema, t: d.T, policy: d.Policy, mode: d.Mode}
	if d.Alloc != nil {
		k.has |= hasAlloc
		k.alloc = *d.Alloc
	}
	if m := d.MPC; m != nil {
		k.has |= hasMPC
		k.mpc = *m
		k.mpc.RefTrajW = keepFloats(&l.fs, m.RefTrajW)
		k.mpc.RWeights = keepFloats(&l.floats, m.RWeights)
		k.mpc.FreqsGHz = keepFloats(&l.fs, m.FreqsGHz)
	}
	if d.Guard != nil {
		k.has |= hasGuard
		k.guard = *d.Guard
	}
	if d.UPS != nil {
		k.has |= hasUPS
		k.ups = *d.UPS
	}
	l.recs = append(l.recs, k)
	// Drop in chunks (hysteresis max/4) so a saturated stream pays the
	// copy, into a slice sized for the next chunk, once per chunk.
	if l.max > 0 && len(l.recs) > l.max+l.max/4 {
		n := len(l.recs) - l.max
		l.first += n
		recs := make([]*keptDecision, l.max, len(l.recs))
		copy(recs, l.recs[n:])
		l.recs = recs
	}
	l.wakeFollowers()
	l.mu.Unlock()
	return nil
}

// keepFloats copies vs into the slab, starting a new slab, twice as long
// as the last up to slabFloats, when vs does not fit. An empty slice keeps
// nothing: omitempty renders nil and empty alike.
func keepFloats[T float64 | F](slab *[]T, vs []T) []T {
	if len(vs) == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < len(vs) {
		*slab = make([]T, 0, max(min(2*cap(*slab), slabFloats), 256, len(vs)))
	}
	n := len(*slab)
	*slab = append(*slab, vs...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// encodable reports whether every plain float64 of d — the fields
// AppendDecision refuses NaN and infinities in; F fields take any value —
// is finite.
func encodable(d *Decision) bool {
	ok := finite(d.T)
	if a := d.Alloc; a != nil {
		ok = ok && finite(a.ReserveW) && finite(a.ShiftW) && finite(a.DeadlineFloorW) &&
			finite(a.HeadroomUtil) && finite(a.DeadlineUrgency)
	}
	if m := d.MPC; m != nil {
		ok = ok && finite(m.TargetW) && finite(m.KWPerGHz) && allFinite(m.RWeights)
	}
	if g := d.Guard; g != nil {
		ok = ok && finite(g.Confidence) && finite(g.RejectedTotal)
	}
	if u := d.UPS; u != nil {
		ok = ok && finite(u.RequestW) && finite(u.SoC)
	}
	return ok
}

// finite reports whether v is neither NaN nor an infinity (both make v-v
// NaN).
func finite(v float64) bool { return v-v == 0 }

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Close marks the log complete; followers drain and return. Idempotent.
func (l *DecisionLog) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.wakeFollowers()
	}
	l.mu.Unlock()
}

// wakeFollowers wakes every follower waiting on the channel Next handed
// out. Callers hold mu.
func (l *DecisionLog) wakeFollowers() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// Next returns the records from global index idx on (skipping forward
// past any dropped prefix), the new index, whether the log is complete,
// and a channel that closes when more records (or the close) arrive after
// this snapshot. The records are shared and never change, so callers
// read them without holding any lock.
func (l *DecisionLog) Next(idx int) (DecisionBatch, int, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idx < l.first {
		idx = l.first
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	end := len(l.recs)
	return l.recs[idx-l.first : end : end], l.first + end, l.closed, l.wake
}

package obs

import (
	"math"
	"sort"
	"sync"

	"sprintcon/internal/telemetry"
)

// Tracer collects causal spans for one emitting source — a rack's control
// plane or the cluster coordinator. Span IDs are deterministic: each source
// owns a namespace ((source+1) << sourceShift) and numbers its spans from 1
// in emission order, so two identical seeded runs emit identical IDs and
// the coordinator's and racks' IDs never collide. A nil Tracer is a valid
// disabled tracer: every method no-ops (and costs one nil check), matching
// the telemetry package's zero-cost-when-disabled contract.
//
// A run keeps every span it emits, so the log is compact: each span is a
// pointer-free 40-byte spanRec in fixed-size chunks (no doubling slice to
// copy, nothing for the garbage collector to scan). A record's ID is its
// position, its schema is implied, its kind and detail are one index into
// the tracer's table of (kind, detail) pairs, and an instant event stores
// no end. Spans rebuilds the telemetry.Span records on demand.
//
// The mutex makes the tracer safe for the lock-step cluster loop, where the
// coordinating goroutine touches a rack's tracer in the grant/heartbeat
// phases and the rack's own goroutine in the physics phase; the loop's
// phase barriers order those accesses, so the emission order — and with it
// the trace — stays deterministic.
type Tracer struct {
	mu     sync.Mutex
	source int
	n      int // spans recorded; span i has ID ns | (i+1)
	chunks []*[chunkSpans]spanRec
	tags   []spanTag
	tagIdx map[spanTag]uint32
	// lateEnds holds the EndS that End gave an instant event. Only an
	// event stamped at a NaN time reads as open, so this stays empty in
	// any real run.
	lateEnds map[int]float64
}

// spanRec is one stored span. val is the Attr of an instant event and the
// EndS of a span opened by Begin (whose Attr is always 0); tag is the
// (kind, detail) table index shifted left one bit, with tagInstant in the
// low bit, so a tracer holds at most 2^31 distinct pairs.
type spanRec struct {
	parent uint64
	start  float64
	lease  uint64
	val    float64
	rack   int32
	tag    uint32
}

// tagInstant marks an instant event: EndS reads as StartS, val is Attr.
const tagInstant = 1

// spanTag is an interned (Kind, Detail) pair.
type spanTag struct{ kind, detail string }

// chunkSpans is the span count of one storage chunk (10 KiB): small enough
// that a lightly used tracer — a run has one per rack — wastes little of
// its last chunk.
const chunkSpans = 256

// sourceShift positions the source namespace above the per-source sequence
// counter: 2^40 spans per source before collision, far beyond any run.
const sourceShift = 40

// CoordinatorSource is the Tracer source ID of the cluster coordinator.
const CoordinatorSource = -1

// NewTracer returns an enabled tracer for the given source (a rack index,
// or CoordinatorSource).
func NewTracer(source int) *Tracer {
	return &Tracer{source: source, tagIdx: make(map[spanTag]uint32)}
}

// ns is the tracer's ID namespace.
func (t *Tracer) ns() uint64 { return uint64(t.source+1) << sourceShift }

// rec returns span i's record.
func (t *Tracer) rec(i int) *spanRec { return &t.chunks[i/chunkSpans][i%chunkSpans] }

// add stores one span and returns its ID. Caller holds the mutex.
func (t *Tracer) add(r spanRec, kind, detail string) uint64 {
	tag := spanTag{kind, detail}
	idx, ok := t.tagIdx[tag]
	if !ok {
		idx = uint32(len(t.tags))
		t.tags = append(t.tags, tag)
		t.tagIdx[tag] = idx
	}
	r.tag |= idx << 1
	if t.n%chunkSpans == 0 {
		t.chunks = append(t.chunks, new([chunkSpans]spanRec))
	}
	*t.rec(t.n) = r
	t.n++
	return t.ns() | uint64(t.n)
}

// Begin opens a span at startS and returns its ID (0 on a nil tracer).
// rack must fit in 32 bits; it is a rack index or -1.
func (t *Tracer) Begin(kind string, rack int, startS float64, parent, leaseVersion uint64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(spanRec{parent: parent, start: startS, lease: leaseVersion, val: math.NaN(), rack: int32(rack)}, kind, "")
}

// End closes the identified open span at endS (no-op on a nil tracer, a
// zero, foreign or unknown ID, or a span already closed).
func (t *Tracer) End(id uint64, endS float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.ns()
	if id <= ns || id-ns > uint64(t.n) {
		return
	}
	i := int(id - ns - 1)
	r := t.rec(i)
	switch {
	case r.tag&tagInstant == 0:
		if math.IsNaN(r.val) {
			r.val = endS
		}
	case math.IsNaN(r.start):
		if end, ok := t.lateEnds[i]; !ok || math.IsNaN(end) {
			if t.lateEnds == nil {
				t.lateEnds = make(map[int]float64)
			}
			t.lateEnds[i] = endS
		}
	}
}

// Event records an instantaneous span (EndS = StartS) with an optional
// numeric attribute and detail annotation, returning its ID. rack must fit
// in 32 bits; it is a rack index or -1.
func (t *Tracer) Event(kind string, rack int, nowS float64, parent, leaseVersion uint64, attr float64, detail string) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(spanRec{parent: parent, start: nowS, lease: leaseVersion, val: attr, rack: int32(rack), tag: tagInstant}, kind, detail)
}

// Spans returns the recorded spans in emission order.
func (t *Tracer) Spans() []telemetry.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return nil
	}
	out := make([]telemetry.Span, t.n)
	ns := t.ns()
	for i := range out {
		r := t.rec(i)
		tag := t.tags[r.tag>>1]
		s := telemetry.Span{
			Schema:       telemetry.SpanSchemaVersion,
			ID:           ns | uint64(i+1),
			Parent:       r.parent,
			Kind:         tag.kind,
			Rack:         int(r.rack),
			StartS:       r.start,
			EndS:         telemetry.F(r.val),
			LeaseVersion: r.lease,
			Detail:       tag.detail,
		}
		if r.tag&tagInstant != 0 {
			s.EndS, s.Attr = telemetry.F(r.start), r.val
			if end, ok := t.lateEnds[i]; ok {
				s.EndS = telemetry.F(end)
			}
		}
		out[i] = s
	}
	return out
}

// Len returns the number of recorded spans (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// MergeSpans interleaves several sources' spans into one deterministic
// trace, ordered by (StartS, ID). The order is total — IDs are unique
// across sources — so the merged trace is identical however goroutines
// interleaved during the run.
func MergeSpans(traces ...[]telemetry.Span) []telemetry.Span {
	var n int
	for _, t := range traces {
		n += len(t)
	}
	out := make([]telemetry.Span, 0, n)
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartS != out[b].StartS {
			return out[a].StartS < out[b].StartS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

package obs

import (
	"math"

	"sprintcon/internal/telemetry"
)

// refTracer is the span tracer as it was before spans were stored
// compactly: every span a full telemetry.Span record in one growing slice,
// End a scan from the tail. FuzzTracer holds Tracer to its output bit for
// bit.
type refTracer struct {
	source int
	seq    uint64
	spans  []telemetry.Span
}

func newRefTracer(source int) *refTracer { return &refTracer{source: source} }

func (t *refTracer) nextID() uint64 {
	t.seq++
	return uint64(t.source+1)<<sourceShift | t.seq
}

func (t *refTracer) Begin(kind string, rack int, startS float64, parent, leaseVersion uint64) uint64 {
	id := t.nextID()
	t.spans = append(t.spans, telemetry.Span{
		Schema:       telemetry.SpanSchemaVersion,
		ID:           id,
		Parent:       parent,
		Kind:         kind,
		Rack:         rack,
		StartS:       startS,
		EndS:         telemetry.F(math.NaN()),
		LeaseVersion: leaseVersion,
	})
	return id
}

func (t *refTracer) End(id uint64, endS float64) {
	if id == 0 {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			if t.spans[i].Open() {
				t.spans[i].EndS = telemetry.F(endS)
			}
			return
		}
	}
}

func (t *refTracer) Event(kind string, rack int, nowS float64, parent, leaseVersion uint64, attr float64, detail string) uint64 {
	id := t.nextID()
	t.spans = append(t.spans, telemetry.Span{
		Schema:       telemetry.SpanSchemaVersion,
		ID:           id,
		Parent:       parent,
		Kind:         kind,
		Rack:         rack,
		StartS:       nowS,
		EndS:         telemetry.F(nowS),
		LeaseVersion: leaseVersion,
		Attr:         attr,
		Detail:       detail,
	})
	return id
}

func (t *refTracer) Spans() []telemetry.Span {
	return append([]telemetry.Span(nil), t.spans...)
}

func (t *refTracer) Len() int { return len(t.spans) }

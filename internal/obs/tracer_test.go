package obs

import (
	"encoding/binary"
	"math"
	"runtime"
	"strconv"
	"testing"

	"sprintcon/internal/telemetry"
)

// TestTracerIDs pins the deterministic span-ID scheme: per-source namespaces
// (coordinator = CoordinatorSource, rack i = i+1) with a sequence counter,
// so merged cluster traces never collide and re-runs reproduce identical
// IDs.
func TestTracerIDs(t *testing.T) {
	coord := NewTracer(CoordinatorSource)
	r0 := NewTracer(0)
	r1 := NewTracer(1)

	a := coord.Event("lease-grant", 0, 0, 0, 1, 0, "")
	b := r0.Event("lease-accept", 0, 1, a, 1, 0, "")
	c := r1.Event("lease-accept", 1, 1, a, 1, 0, "")
	if a != 1 {
		t.Fatalf("coordinator first ID = %d, want 1 (namespace 0)", a)
	}
	if b != 1<<40|1 {
		t.Fatalf("rack 0 first ID = %#x, want %#x", b, uint64(1)<<40|1)
	}
	if c != 2<<40|1 {
		t.Fatalf("rack 1 first ID = %#x, want %#x", c, uint64(2)<<40|1)
	}

	// Same construction, same IDs: the scheme is a pure function of the
	// (source, sequence) pair.
	again := NewTracer(CoordinatorSource)
	if id := again.Event("lease-grant", 0, 0, 0, 1, 0, ""); id != a {
		t.Fatalf("re-run coordinator ID = %d, want %d", id, a)
	}
}

func TestTracerBeginEnd(t *testing.T) {
	tr := NewTracer(0)
	id := tr.Begin("degraded", 0, 10, 0, 3)
	spans := tr.Spans()
	if len(spans) != 1 || !spans[0].Open() {
		t.Fatalf("expected one open span, got %+v", spans)
	}
	tr.End(id, 25)
	spans = tr.Spans()
	if spans[0].Open() || spans[0].EndS != 25 {
		t.Fatalf("End did not close the span: %+v", spans[0])
	}
	// Ending again must not reopen or rewrite.
	tr.End(id, 99)
	if got := tr.Spans()[0].EndS; got != 25 {
		t.Fatalf("closed span rewritten: EndS = %v, want 25", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin("x", 0, 0, 0, 0); id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	if id := tr.Event("x", 0, 0, 0, 0, 0, ""); id != 0 {
		t.Fatalf("nil Event = %d, want 0", id)
	}
	tr.End(1, 0)
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer must report no spans")
	}
}

// TestMergeSpans pins the merge's total order: (StartS, ID), which is
// deterministic whatever goroutine interleaving produced the per-source
// traces.
func TestMergeSpans(t *testing.T) {
	a := []telemetry.Span{
		{Schema: telemetry.SpanSchemaVersion, ID: 5, StartS: 2},
		{Schema: telemetry.SpanSchemaVersion, ID: 6, StartS: 0},
	}
	b := []telemetry.Span{
		{Schema: telemetry.SpanSchemaVersion, ID: 1<<40 | 1, StartS: 2},
		{Schema: telemetry.SpanSchemaVersion, ID: 1<<40 | 2, StartS: 1},
	}
	got := MergeSpans(a, b)
	wantOrder := []uint64{6, 1<<40 | 2, 5, 1<<40 | 1}
	for i, s := range got {
		if s.ID != wantOrder[i] {
			t.Fatalf("merge order[%d] = %d, want %d", i, s.ID, wantOrder[i])
		}
	}
	if math.IsNaN(got[0].StartS) {
		t.Fatal("merge corrupted spans")
	}
}

// TestTracerLongAndVaried: spans across many chunks, more distinct detail
// strings than a byte can index, and End on spans in early chunks all
// read back exactly as the reference tracer records them.
func TestTracerLongAndVaried(t *testing.T) {
	tr, ref := NewTracer(3), newRefTracer(3)
	var open []uint64
	for i := 0; i < 5*chunkSpans+17; i++ {
		detail := strconv.Itoa(i % 700)
		if i%50 == 0 {
			id := tr.Begin("degraded", 3, float64(i), 0, uint64(i))
			if rid := ref.Begin("degraded", 3, float64(i), 0, uint64(i)); rid != id {
				t.Fatalf("Begin %d: ID %#x, reference %#x", i, id, rid)
			}
			open = append(open, id)
			continue
		}
		tr.Event("control-period", 3, float64(i), 7, 0, float64(i%9), detail)
		ref.Event("control-period", 3, float64(i), 7, 0, float64(i%9), detail)
	}
	for k, id := range open {
		if k%2 == 0 {
			tr.End(id, float64(10*k))
			ref.End(id, float64(10*k))
		}
	}
	compareSpans(t, tr, ref)
}

// compareSpans fails unless tr and ref hold the same spans, floats
// compared by their bits.
func compareSpans(t *testing.T, tr *Tracer, ref *refTracer) {
	t.Helper()
	got, want := tr.Spans(), ref.Spans()
	if tr.Len() != ref.Len() || len(got) != len(want) {
		t.Fatalf("Len %d and %d spans, reference %d and %d", tr.Len(), len(got), ref.Len(), len(want))
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	for i := range want {
		g, w := got[i], want[i]
		if g.Schema != w.Schema || g.ID != w.ID || g.Parent != w.Parent || g.Kind != w.Kind || g.Rack != w.Rack ||
			bits(g.StartS) != bits(w.StartS) || bits(float64(g.EndS)) != bits(float64(w.EndS)) ||
			g.LeaseVersion != w.LeaseVersion || bits(g.Attr) != bits(w.Attr) || g.Detail != w.Detail {
			t.Fatalf("span %d:\n got  %+v\n want %+v", i, g, w)
		}
	}
}

// tracerOps decodes a fuzz input into tracer operations.
type tracerOps struct{ b []byte }

func (r *tracerOps) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *tracerOps) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *tracerOps) float() float64 { return math.Float64frombits(r.u64()) }

// small returns a small value or, one time in four, raw bits.
func (r *tracerOps) small() uint64 {
	if c := r.byte(); c%4 != 0 {
		return uint64(c / 4)
	}
	return r.u64()
}

var fuzzKinds = []string{"heartbeat", "control-period", "lease-grant", "degraded", ""}

// FuzzTracer runs generated operation sequences against Tracer and the
// reference copy of the slice-backed tracer it replaced: Begin, Event and
// End with zero, foreign, repeated and out-of-range IDs, raw float bits
// (NaN included, so instant events can read as open), bursts past a
// chunk's length and detail strings from a space of 65536. The IDs each
// call returns, Len and every field of Spans must match, floats by bits.
func FuzzTracer(f *testing.F) {
	f.Add([]byte{0})
	// Seeds written in the decoder's format: w writes raw bytes, f a
	// float's bits, v a small value (< 64).
	var b []byte
	w := func(c ...byte) { b = append(b, c...) }
	fl := func(x float64) { b = binary.BigEndian.AppendUint64(b, math.Float64bits(x)) }
	v := func(x byte) { w(4*x + 1) }
	begin := func(kind, rack byte, start float64) { w(0, kind); v(rack); fl(start); v(0); v(1) }
	event := func(kind, rack byte, now float64, detail int) {
		w(1, kind)
		v(rack)
		fl(now)
		v(1)
		v(1)
		fl(float64(detail % 9))
		w(1, byte(detail>>8), byte(detail))
	}
	end := func(sel byte, at float64) { w(2, sel); fl(at) }

	// A degraded span opened and closed, an NaN-stamped event closed
	// late, and Ends with a zero, foreign and out-of-range ID.
	w(0xff)
	begin(3, 0, 10)
	event(0, 0, math.NaN(), 1)
	end(1, 25)
	end(1+5, 30)
	end(6, 40)
	end(0, 1)
	end(2, 1)
	end(3, 1)
	end(128, 1) // below the namespace
	f.Add(b)

	// Bursts of heartbeats across several chunks, then Ends reaching
	// back into the first chunk.
	b = []byte{2}
	begin(3, 2, 0)
	for i := 0; i < 6; i++ {
		w(3, 0xff)
	}
	end(1, 1e3)
	f.Add(b)

	// Hundreds of distinct details, with Begins and Ends among them.
	b = []byte{0}
	for i := 0; i < 600; i++ {
		event(byte(i%5), byte(i%4), float64(i), i)
		if i%7 == 0 {
			begin(3, byte(i%4), float64(i))
			end(byte(5*(i%40)+1), float64(i+1))
		}
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &tracerOps{b: data}
		source := int(int8(r.byte()))
		tr, ref := NewTracer(source), newRefTracer(source)
		other := NewTracer(source + 1)
		var ids []uint64
		for ops := 0; len(r.b) > 0 && ops < 4096; ops++ {
			switch op := r.byte() % 4; op {
			case 0: // Begin
				kind := fuzzKinds[int(r.byte())%len(fuzzKinds)]
				rack := int(int32(uint32(r.small())))
				start, parent, lease := r.float(), r.small(), r.small()
				id, want := tr.Begin(kind, rack, start, parent, lease), ref.Begin(kind, rack, start, parent, lease)
				if id != want {
					t.Fatalf("Begin ID %#x, reference %#x", id, want)
				}
				ids = append(ids, id)
			case 1: // Event
				kind := fuzzKinds[int(r.byte())%len(fuzzKinds)]
				rack := int(int32(uint32(r.small())))
				now, parent, lease, attr := r.float(), r.small(), r.small(), r.float()
				detail := ""
				if r.byte()%2 == 1 {
					detail = string([]byte{'d', r.byte(), r.byte()})
				}
				id, want := tr.Event(kind, rack, now, parent, lease, attr, detail), ref.Event(kind, rack, now, parent, lease, attr, detail)
				if id != want {
					t.Fatalf("Event ID %#x, reference %#x", id, want)
				}
				ids = append(ids, id)
			case 2: // End
				var id uint64
				switch sel := r.byte(); sel % 5 {
				case 0: // zero
				case 1: // a recorded span's, possibly already closed
					if len(ids) > 0 {
						id = ids[int(sel/5)%len(ids)]
					}
				case 2: // another source's
					id = other.Event("heartbeat", 0, 0, 0, 0, 0, "")
				case 3: // past the last span, or just below the namespace
					id = tr.ns() + uint64(tr.Len()) + uint64(sel/5)
					if sel&0x80 != 0 {
						id = tr.ns() - uint64(sel/5)
					}
				case 4:
					id = r.u64()
				}
				end := r.float()
				tr.End(id, end)
				ref.End(id, end)
			case 3: // a burst of heartbeats
				n := int(r.byte())
				for i := 0; i < n; i++ {
					now := float64(i)
					tr.Event("heartbeat", source, now, 0, 1, 0, "")
					ref.Event("heartbeat", source, now, 0, 1, 0, "")
				}
			}
		}
		compareSpans(t, tr, ref)
	})
}

// TestTracerBytesPerSpan bounds the heap a kept span costs: 100k
// heartbeat events, the commonest span, live after a collection. A
// slice of telemetry.Span records cost about 123 B each, doubling slack
// included.
func TestTracerBytesPerSpan(t *testing.T) {
	const events = 100_000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr := NewTracer(0)
	for i := 0; i < events; i++ {
		tr.Event("heartbeat", 0, float64(i), 1<<40|1, 1, 0, "")
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tr)
	if per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / events; per > 56 {
		t.Fatalf("%.1f heap bytes per heartbeat span, want ≤ 56", per)
	} else {
		t.Logf("%.1f heap bytes per heartbeat span", per)
	}
}

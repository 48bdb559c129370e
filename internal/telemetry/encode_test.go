package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// edgeFloats are the values where encoding/json's float format changes
// shape: the sign of zero, the 'f'/'e' switch at 1e-6 and 1e21, the
// e-07 → e-7 trim, the subnormals and the non-finite values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 4000, 1291.584, 1.0 / 3, -2.0 / 3,
	1e-7, -1e-7, 1e-6, math.Nextafter(1e-6, 0), 1.5e-6, 1e-9, 1e-10, 1e-100,
	1e20, 1e21, -1e21, math.Nextafter(1e21, 0), 1e22, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.Float64frombits(0x0010000000000000), // smallest normal
	math.MaxFloat64, -math.MaxFloat64, float64(1 << 53), float64(1<<53) + 2,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// edgeStrings exercise every branch of JSON string escaping: HTML
// specials, named and \u00XX control escapes, DEL, multi-byte runes,
// U+2028/U+2029, and invalid or truncated UTF-8.
var edgeStrings = []string{
	"", "SprintCon", "cb-only", `q"uo\te`, "<a&b>", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"héllo 世界", "line\u2028sep\u2029par", "\xff", "ab\xc3", "\xe2\x80", "\xed\xa0\x80",
	"\U0001F600", "\ufffd",
}

// jsonLine is the reference: what json.Encoder writes for d.
func jsonLine(d *Decision) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(d)
	return buf.Bytes(), err
}

// checkAgainstJSON fails unless AppendDecision writes json.Encoder's bytes
// for d, or both refuse d with the same error; and unless a DecisionLog
// keeps d and renders those bytes, or refuses d with that error.
func checkAgainstJSON(t testing.TB, d *Decision) {
	t.Helper()
	want, wantErr := jsonLine(d)
	got, err := AppendDecision(nil, d)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendDecision err = %v, encoding/json err = %v\nrecord %+v", err, wantErr, d)
	}
	l := NewDecisionLog(0)
	keepErr := l.keep(d)
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("AppendDecision err %q, encoding/json err %q", err, wantErr)
		}
		if keepErr == nil || keepErr.Error() != wantErr.Error() {
			t.Fatalf("DecisionLog.keep err %v, encoding/json err %q", keepErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendDecision mismatch\n got %s\nwant %s", got, want)
	}
	if keepErr != nil {
		t.Fatalf("DecisionLog.keep refused a record encoding/json encodes: %v", keepErr)
	}
	if kept := renderLog(t, l); !bytes.Equal(kept, want) {
		t.Fatalf("kept record renders differently\n got %s\nwant %s", kept, want)
	}
	// Read back, every number — null, "+Inf" and "-Inf" included —
	// encodes as it was written. (Strings need not: invalid UTF-8 comes
	// back as the replacement character it was written as.)
	read, err := ReadDecisions(bytes.NewReader(got))
	if err != nil || len(read) != 1 {
		t.Fatalf("ReadDecisions: %d records, %v", len(read), err)
	}
	numbers := func(d *Decision) []byte {
		b, err := AppendDecision(nil, &Decision{Schema: d.Schema, T: d.T, Alloc: d.Alloc, MPC: d.MPC, Guard: d.Guard, UPS: d.UPS})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if again, want := numbers(&read[0]), numbers(d); !bytes.Equal(again, want) {
		t.Fatalf("read back and encoded again\n got %s\nwant %s", again, want)
	}
}

// nanFeedbackSeed is a fuzz input decoding to an MPC-only record whose
// pfb_w, ref_traj_w and freqs_ghz are NaN (selector 32 is edgeFloats'
// NaN) and whose other floats are finite: the record an unhardened
// controller writes while its power reading is lost.
var nanFeedbackSeed = []byte{0x02, 2, 2, 0, 0, 32, 7, 4, 32, 0, 0, 0, 2, 2, 1, 5, 3, 32, 0, 0, 0, 0, 0, 0, 0, 7}

// TestFMarshalJSONEdges holds F's JSON form to encoding/json's float64
// form at every edge, and to null/"+Inf"/"-Inf" where encoding/json
// refuses the value.
func TestFMarshalJSONEdges(t *testing.T) {
	for _, v := range edgeFloats {
		got, err := F(v).MarshalJSON()
		if err != nil {
			t.Fatalf("F(%v): %v", v, err)
		}
		want, jerr := json.Marshal(v)
		switch {
		case math.IsNaN(v):
			want = []byte("null")
		case math.IsInf(v, 1):
			want = []byte(`"+Inf"`)
		case math.IsInf(v, -1):
			want = []byte(`"-Inf"`)
		case jerr != nil:
			t.Fatalf("json.Marshal(%v): %v", v, jerr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("F(%v) = %s, want %s", v, got, want)
		}
		// Through the reflective encoder, as spans' end_s reaches the wire.
		wrapped, err := json.Marshal(struct{ V F }{F(v)})
		if err != nil || string(wrapped) != `{"V":`+string(want)+`}` {
			t.Errorf("struct{F(%v)} = %s, %v", v, wrapped, err)
		}
	}
}

// fullDecision is a record with every section present and every slice
// non-empty, holding ordinary values.
func fullDecision() *Decision {
	return &Decision{
		Schema: DecisionSchemaVersion,
		T:      396,
		Policy: "SprintCon",
		Mode:   "normal",
		Alloc:  &AllocDecision{PCbW: 3200, PBatchW: 1291.584, ReserveW: 2148.871356037116, ShiftW: 144.489175317219, DeadlineFloorW: 1328.4303243643162, HeadroomUtil: 1.0916703488155015, DeadlineUrgency: 0.3578292745629579, Updated: true},
		MPC: &MPCDecision{PfbW: 1319.8799737906047, TargetW: 1291.584,
			RefTrajW:  []F{1295.4134436274073, 1292.102258837954, 1291.6541387066245, 1291.5934922417268},
			RWeights:  []float64{0.4941935385767035, 0.4941935385767035, 0.43654295908388663, 1, 1, 1},
			FreqsGHz:  []F{0.4, 0.4, 0.4, 2.4, 2.4, 1.6},
			ClampedLo: 3, ClampedHi: 2, QPSweeps: 7, QPConverged: true, LockedCores: 1, KWPerGHz: 9.652499999999998},
		Guard: &GuardVerdict{Confidence: 1, Degraded: true, RejectedTotal: 3, UPSFailed: true},
		UPS:   &UPSDecision{RequestW: 238.24749166626583, SoC: 0.9396909716063649},
	}
}

// cloneDecision deep-copies d so a test case can mutate one field.
func cloneDecision(d *Decision) *Decision {
	c := *d
	if d.Alloc != nil {
		a := *d.Alloc
		c.Alloc = &a
	}
	if d.MPC != nil {
		m := *d.MPC
		m.RefTrajW = append([]F(nil), m.RefTrajW...)
		m.RWeights = append([]float64(nil), m.RWeights...)
		m.FreqsGHz = append([]F(nil), m.FreqsGHz...)
		c.MPC = &m
	}
	if d.Guard != nil {
		g := *d.Guard
		c.Guard = &g
	}
	if d.UPS != nil {
		u := *d.UPS
		c.UPS = &u
	}
	return &c
}

// leafFields lists every settable scalar or slice field of v (a struct),
// descending into the non-nil section pointers.
func leafFields(v reflect.Value, path string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		if f.Kind() == reflect.Pointer {
			if !f.IsNil() {
				leafFields(f.Elem(), name+".", out)
			}
			continue
		}
		out[name] = f
	}
}

// TestAppendDecisionGenerated runs every edge value through every field
// of every section and compares the bytes (or the refusal), encoded
// directly and kept in a DecisionLog, with encoding/json; sections go nil
// or present and slices nil, empty or repeated.
func TestAppendDecisionGenerated(t *testing.T) {
	base := fullDecision()
	var cases int
	fields := map[string]reflect.Value{}
	leafFields(reflect.ValueOf(base).Elem(), "", fields)
	for name := range fields {
		var values []any
		switch fields[name].Interface().(type) {
		case float64, F:
			for _, v := range edgeFloats {
				values = append(values, v)
			}
		case []float64:
			values = sliceCases[float64]()
		case []F:
			values = sliceCases[F]()
		case string:
			for _, s := range edgeStrings {
				values = append(values, s)
			}
		case int:
			values = append(values, 0, -1, 64, math.MaxInt, math.MinInt)
		case bool:
			values = append(values, false, true)
		default:
			t.Fatalf("field %s: unhandled type %T", name, fields[name].Interface())
		}
		t.Run(name, func(t *testing.T) {
			for _, v := range values {
				d := cloneDecision(base)
				m := map[string]reflect.Value{}
				leafFields(reflect.ValueOf(d).Elem(), "", m)
				m[name].Set(reflect.ValueOf(v).Convert(m[name].Type()))
				checkAgainstJSON(t, d)
			}
		})
		cases += len(values)
	}
	// Every combination of absent sections, with the rest as in base.
	for mask := 0; mask < 16; mask++ {
		d := cloneDecision(base)
		if mask&1 != 0 {
			d.Alloc = nil
		}
		if mask&2 != 0 {
			d.MPC = nil
		}
		if mask&4 != 0 {
			d.Guard = nil
		}
		if mask&8 != 0 {
			d.UPS = nil
		}
		checkAgainstJSON(t, d)
		d.Mode = ""
		checkAgainstJSON(t, d)
		cases += 2
	}
	if cases < 1000 {
		t.Fatalf("only %d generated cases", cases)
	}
}

// sliceCases are the float-slice values TestAppendDecisionGenerated tries:
// nil, empty, and each edge value alone, repeated and among others.
func sliceCases[T float64 | F]() []any {
	values := []any{[]T(nil), []T{}}
	for _, f := range edgeFloats {
		v := T(f)
		values = append(values, []T{v}, []T{v, v, v}, []T{1, v, v, 2, v}, []T{v, -v, -v})
	}
	return values
}

// fuzzReader turns fuzz bytes into record fields; past the end it reads
// zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// float returns an edge value for a small selector byte and arbitrary
// bits otherwise.
func (r *fuzzReader) float() float64 {
	if sel := r.byte(); sel < 64 {
		return edgeFloats[int(sel)%len(edgeFloats)]
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(r.byte())
	}
	return math.Float64frombits(u)
}

func (r *fuzzReader) string() string {
	n := int(r.byte() % 16)
	if n > len(r.b) {
		n = len(r.b)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// floats returns nil, an empty slice, or up to 15 elements, each either a
// fresh value or a repeat of its left neighbour.
func (r *fuzzReader) floats() []float64 {
	n := int(r.byte() % 18)
	switch n {
	case 16:
		return nil
	case 17:
		return []float64{}
	}
	out := make([]float64, n)
	for i := range out {
		if i > 0 && r.byte()%2 == 0 {
			out[i] = out[i-1]
		} else {
			out[i] = r.float()
		}
	}
	return out
}

// fs is floats as F values.
func (r *fuzzReader) fs() []F {
	vs := r.floats()
	if vs == nil {
		return nil
	}
	return AppendFs([]F{}, vs)
}

func (r *fuzzReader) decision() *Decision {
	present := r.byte()
	d := &Decision{
		Schema: int(int8(r.byte())),
		T:      r.float(),
		Policy: r.string(),
		Mode:   r.string(),
	}
	if present&1 != 0 {
		d.Alloc = &AllocDecision{PCbW: F(r.float()), PBatchW: F(r.float()), ReserveW: r.float(), ShiftW: r.float(),
			DeadlineFloorW: r.float(), HeadroomUtil: r.float(), DeadlineUrgency: r.float(), Updated: r.byte()%2 == 1}
	}
	if present&2 != 0 {
		d.MPC = &MPCDecision{PfbW: F(r.float()), TargetW: r.float(), RefTrajW: r.fs(), RWeights: r.floats(), FreqsGHz: r.fs(),
			ClampedLo: int(int8(r.byte())), ClampedHi: int(r.byte()), QPSweeps: int(r.byte()) << 8, QPConverged: r.byte()%2 == 1,
			LockedCores: int(r.byte()), KWPerGHz: r.float()}
	}
	if present&4 != 0 {
		d.Guard = &GuardVerdict{Confidence: r.float(), Degraded: r.byte()%2 == 1, RejectedTotal: r.float(), UPSFailed: r.byte()%2 == 1}
	}
	if present&8 != 0 {
		d.UPS = &UPSDecision{RequestW: r.float(), SoC: r.float()}
	}
	return d
}

// FuzzAppendDecision: for any record — arbitrary floats in every field,
// arbitrary strings, nil or empty sections and slices — AppendDecision
// writes json.Encoder's bytes, and refuses exactly the records
// encoding/json refuses, with the same error: those with a NaN or an
// infinity in a plain float64 field. A NaN in an F field (the alloc
// budgets, mpc.pfb_w, ref_traj_w, freqs_ghz) is written as null and an
// infinity as "+Inf"/"-Inf", and ReadDecisions reads the line back to a
// record that encodes to the same bytes.
func FuzzAppendDecision(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 2, 1, 9, 'S', 'p', 'r', 'i', 'n', 't', 'C', 'o', 'n', 6, 'n', 'o', 'r', 'm', 'a', 'l'})
	f.Add(bytes.Repeat([]byte{0xff, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 0x05}, 40))
	f.Add([]byte(strings.Repeat("\x0f\x03<\xe2\x80\xa8&\xff", 30)))
	f.Add(nanFeedbackSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, (&fuzzReader{b: data}).decision())
	})
}

// emitRecord is a realistic 64-core record.
func emitRecord() *Decision {
	d := fullDecision()
	d.MPC.RWeights = make([]float64, 64)
	d.MPC.FreqsGHz = make([]F, 64)
	for i := range d.MPC.RWeights {
		d.MPC.RWeights[i] = 1 / float64(i+3)
		d.MPC.FreqsGHz[i] = F(0.4 + 0.4*float64(i%5))
	}
	return d
}

// TestEmitZeroAlloc: once its buffer has grown, the encoding sink encodes
// and writes a full record without allocating; the retaining sink keeps
// one without allocating either, apart from one float slab per about 30
// records and one compaction per max/4 records, so a steady-state bounded
// log averages well under one allocation per record.
func TestEmitZeroAlloc(t *testing.T) {
	const runs = 4096
	d := emitRecord()
	enc := NewDecisionSink(io.Discard)
	enc.Emit(d)
	if allocs := testing.AllocsPerRun(runs, func() { enc.Emit(d) }); allocs != 0 {
		t.Fatalf("encoding Emit allocates %.1f times per record, want 0", allocs)
	}

	const max = 1024
	l := NewDecisionLog(max)
	kept := NewDecisionLogSink(l)
	for i := 0; i < 2*max; i++ { // past the first compactions: steady state
		kept.Emit(d)
	}
	if allocs := testing.AllocsPerRun(runs, func() { kept.Emit(d) }); allocs != 0 {
		t.Fatalf("retaining Emit allocates %.1f times per record, want 0", allocs)
	}
	// The amortized cost, counted over one batch: one allocation per
	// float slab, one per record chunk and one per max/4 records for the
	// compaction's copy; 16 more absorb the race runtime's own
	// allocations. One allocation per record would add 4096.
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			kept.Emit(d)
		}
	})
	// A float64 slab holds slabFloats r_weights elements, an F slab as
	// many ref_traj_w and freqs_ghz elements.
	slabs := (runs*len(d.MPC.RWeights)+runs*(len(d.MPC.RefTrajW)+len(d.MPC.FreqsGHz)))/slabFloats + 2
	if bound := float64(slabs + runs/chunkRecs + runs/(max/4) + 16); total > bound {
		t.Fatalf("retaining sink: %.0f allocations over %d records, want ≤ %.0f (float slabs, record chunks and compactions only)", total, runs, bound)
	}
	if enc.Err() != nil || kept.Err() != nil {
		t.Fatal(enc.Err(), kept.Err())
	}
	if _, _, _, _ = l.Next(0); l.Dropped() == 0 {
		t.Fatal("the bounded log never dropped: not a steady state")
	}
}

// TestDecisionSinkDropsNonFinite: a NaN in a plain float64 field is an
// error, as encoding/json makes it, for the encoding and the retaining
// sink alike: the record and every later one are dropped and the error is
// retained.
func TestDecisionSinkDropsNonFinite(t *testing.T) {
	var b strings.Builder
	l := NewDecisionLog(0)
	for _, s := range []*DecisionSink{NewDecisionSink(&b), NewDecisionLogSink(l)} {
		s.Emit(&Decision{T: 1, Policy: "p"})
		s.Emit(&Decision{T: 2, Policy: "p", UPS: &UPSDecision{RequestW: math.NaN()}})
		s.Emit(&Decision{T: 3, Policy: "p"})
		if s.Err() == nil || s.Err().Error() != "json: unsupported value: NaN" {
			t.Fatalf("err = %v, want encoding/json's unsupported-value error", s.Err())
		}
		if s.Count() != 1 {
			t.Fatalf("count %d: want only the first record", s.Count())
		}
	}
	if recs, _, _, _ := l.Next(0); strings.Count(b.String(), "\n") != 1 || len(recs) != 1 {
		t.Fatalf("output %q, %d kept: want only the first record", b.String(), len(recs))
	}
}

// BenchmarkEmit times one realistic 64-core record into io.Discard
// (encode) and into a bounded DecisionLog (keep).
func BenchmarkEmit(b *testing.B) {
	d := fullDecision()
	d.MPC.RWeights = make([]float64, 64)
	d.MPC.FreqsGHz = make([]F, 64)
	for i := range d.MPC.RWeights {
		d.MPC.RWeights[i] = 1 / float64(i+3)
		d.MPC.FreqsGHz[i] = F(0.4 + 0.4*float64(i/16))
	}
	for _, bc := range []struct {
		name string
		sink *DecisionSink
	}{
		{"encode", NewDecisionSink(io.Discard)},
		{"keep", NewDecisionLogSink(NewDecisionLog(1 << 12))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.sink.Emit(d)
			}
		})
	}
}

package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// sampleSnapshot exercises the awkward corners of the wire format: the
// non-finite floats gob must round-trip bit-exactly (+Inf CB budget,
// −Inf pre-first-tick control timestamp) and every nested section.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Version:       Version,
		SimTimeS:      301,
		Step:          301,
		PolicyName:    "sprintcon",
		ScenarioSum:   0xdeadbeefcafef00d,
		HasController: true,
		Controller: ControllerState{
			CapturedAtS:    301,
			Mode:           1,
			EverNearTrip:   true,
			FailSafeUntilS: math.Inf(-1),
			LastCtlS:       math.Inf(-1),
			CurPCbW:        math.Inf(1),
			CurPBatchW:     1234.5,
			CmdFreqsGHz:    []float64{1.2, 2.7, 2.7},
			KModel:         11.5,
			PrevPfbW:       2000,
			HavePrev:       true,
			PIIntegral:     -3.25,
			UPSTrimW:       12,
			InvFreqBounds:  2,
		},
		Plant: PlantState{
			Engine: EngineState{
				OutageS:         0,
				ControlledTicks: 300,
				OverTicks:       3,
				TrackErrSum:     19.5,
				EventSeq:        7,
				Snap: SnapState{
					NowS:           301,
					DtS:            1,
					MeasuredTotalW: 3800.25,
					UPSSoC:         0.83,
				},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	b, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual compares the non-finite floats by bit pattern semantics
	// we need here: Inf==Inf holds, and the sample contains no NaN (gob
	// round-trips NaN too, but DeepEqual would report it unequal).
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestEncodeIsOneSnapshotSet: Encode's bytes are the one-snapshot frame
// written before sets existed (a header over one gob stream carrying one
// snapshot), and EncodeSet of that one snapshot is the same bytes, so
// checkpoint files and Version are unchanged by the set form.
func TestEncodeIsOneSnapshotSet(t *testing.T) {
	s := sampleSnapshot()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		t.Fatal(err)
	}
	want := []byte(magic)
	want = binary.BigEndian.AppendUint32(want, Version)
	want = binary.BigEndian.AppendUint32(want, uint32(payload.Len()))
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload.Bytes()))
	want = append(want, payload.Bytes()...)
	one, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	set, err := EncodeSet([]*Snapshot{s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, want) || !bytes.Equal(set, want) {
		t.Fatalf("Encode (%d B) or EncodeSet of one (%d B) differs from the one-snapshot frame (%d B)", len(one), len(set), len(want))
	}
}

// TestEncodeSetRoundTrip: a set of k snapshots decodes back to the same k,
// in order, for k = 0…5; the set is smaller than k separate frames
// because gob's type descriptors travel once; Decode refuses any frame
// that does not hold exactly one snapshot; and a nil member fails the
// encode.
func TestEncodeSetRoundTrip(t *testing.T) {
	one, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 5; k++ {
		want := make([]*Snapshot, k)
		for i := range want {
			want[i] = sampleSnapshot()
			want[i].Controller.CmdFreqsGHz = append(want[i].Controller.CmdFreqsGHz, float64(i))
			want[i].Plant.Engine.EventSeq = i
		}
		b, err := EncodeSet(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSet(b)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != k || (k > 0 && !reflect.DeepEqual(want, got)) {
			t.Fatalf("k=%d: round trip diverged:\nwant %+v\ngot  %+v", k, want, got)
		}
		if k > 1 && len(b) >= k*len(one) {
			t.Errorf("k=%d: set is %d B, %d separate frames would be %d B", k, len(b), k, k*len(one))
		}
		if _, err := Decode(b); (err == nil) != (k == 1) {
			t.Errorf("k=%d: Decode error %v, want one only for k != 1", k, err)
		}
	}
	if _, err := EncodeSet([]*Snapshot{sampleSnapshot(), nil}); err == nil {
		t.Fatal("EncodeSet accepted a nil snapshot")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version-skew", func(b []byte) []byte { b[7] = 99; return b }},
		{"length-lies", func(b []byte) []byte { b[11] ^= 0x01; return b }},
		{"payload-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"crc-bit-flip", func(b []byte) []byte { b[13] ^= 0x40; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA, 0xBB) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if s, err := Decode(b); err == nil {
				t.Fatalf("corrupt input decoded: %+v", s)
			}
		})
	}
}

func TestDecodeRejectsInvalidFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Snapshot)
	}{
		{"time-nan", func(s *Snapshot) { s.SimTimeS = math.NaN() }},
		{"time-negative", func(s *Snapshot) { s.SimTimeS = -1 }},
		{"step-negative", func(s *Snapshot) { s.Step = -1 }},
		{"counters-negative", func(s *Snapshot) { s.Plant.Engine.CBTrips = -1 }},
		{"over-exceeds-controlled", func(s *Snapshot) { s.Plant.Engine.OverTicks = 1000 }},
		{"trackerr-nan", func(s *Snapshot) { s.Plant.Engine.TrackErrSum = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSnapshot()
			tc.mut(s)
			// Encode does not validate (it serializes what it is given);
			// Decode must refuse to hand the state back.
			b, err := Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Decode(b); err == nil {
				t.Fatalf("invalid snapshot decoded: %+v", got)
			}
		})
	}
}

func TestFileStoreAtomicRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"
	fs := NewFileStore(path)

	// Absent file: (nil, nil), not an error.
	if s, err := fs.Latest(); s != nil || err != nil {
		t.Fatalf("Latest on absent file: %v, %v", s, err)
	}

	want := sampleSnapshot()
	n, err := fs.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= headerLen {
		t.Fatalf("Save reported %d bytes", n)
	}
	got, err := fs.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("file round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// A second Save replaces the first atomically.
	want2 := sampleSnapshot()
	want2.SimTimeS, want2.Step = 302, 302
	if _, err := fs.Save(want2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Step != 302 {
		t.Fatalf("second save not visible: step %d", got2.Step)
	}
}

func TestMemStoreDrop(t *testing.T) {
	ms := NewMemStore()
	if _, err := ms.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if s, err := ms.Latest(); s == nil || err != nil {
		t.Fatalf("Latest after Save: %v, %v", s, err)
	}
	ms.Drop()
	if s, err := ms.Latest(); s != nil || err != nil {
		t.Fatalf("Latest after Drop: %v, %v", s, err)
	}
}

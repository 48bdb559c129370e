package checkpoint

import (
	"reflect"
	"testing"
)

// FuzzDecode holds Decode and DecodeSet to their contract: whatever the
// bytes — torn writes, bit rot, hostile gob streams — they return an error
// rather than panicking; Decode accepts exactly the frames DecodeSet
// accepts with one snapshot, and returns that snapshot; and every set
// DecodeSet accepts passes validation and re-encodes to an equivalent set
// (so a restore can never act on out-of-range state). The corpus seeds the
// interesting shapes: a full valid frame, a controller-less frame, sets of
// zero, two and three snapshots, and corrupted variants.
func FuzzDecode(f *testing.F) {
	full, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	plantOnly := sampleSnapshot()
	plantOnly.HasController = false
	plantOnly.Controller = ControllerState{}
	po, err := Encode(plantOnly)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(po)
	f.Add([]byte("SPCK"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	f.Add(full[:headerLen])
	for _, set := range [][]*Snapshot{{}, {sampleSnapshot(), plantOnly}, {plantOnly, sampleSnapshot(), sampleSnapshot()}} {
		b, err := EncodeSet(set)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		ss, err := DecodeSet(b)
		one, oneErr := Decode(b)
		if (oneErr == nil) != (err == nil && len(ss) == 1) {
			t.Fatalf("Decode error %v, DecodeSet error %v with %d snapshots", oneErr, err, len(ss))
		}
		if err != nil {
			return
		}
		if one != nil && !reflect.DeepEqual(stripNaN(one), stripNaN(ss[0])) {
			t.Fatalf("Decode and DecodeSet disagree:\n%+v\n%+v", one, ss[0])
		}
		for _, s := range ss {
			if verr := s.Validate(); verr != nil {
				t.Fatalf("DecodeSet accepted a snapshot Validate rejects: %v", verr)
			}
		}
		b2, err := EncodeSet(ss)
		if err != nil {
			t.Fatalf("accepted set does not re-encode: %v", err)
		}
		ss2, err := DecodeSet(b2)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if len(ss2) != len(ss) {
			t.Fatalf("re-encoded set holds %d snapshots, want %d", len(ss2), len(ss))
		}
		for i := range ss {
			if !reflect.DeepEqual(stripNaN(ss[i]), stripNaN(ss2[i])) {
				t.Fatalf("snapshot %d: decode/encode/decode diverged:\n%+v\n%+v", i, ss[i], ss2[i])
			}
		}
	})
}

// stripNaN zeroes every NaN float in a copy of the snapshot:
// reflect.DeepEqual treats NaN != NaN, so a fuzz input carrying NaN in a
// slot where it is legal would fail the round-trip comparison spuriously
// even though gob preserves it bit-exactly. The cleaning writes through any
// shared slices, which is fine here: both snapshots are test-local decodes
// that get the same treatment before the comparison.
func stripNaN(s *Snapshot) Snapshot {
	c := *s
	cleanStructFloats(reflect.ValueOf(&c).Elem())
	return c
}

// cleanStructFloats recursively zeroes every NaN float64 reachable from v.
func cleanStructFloats(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		if v.Float() != v.Float() && v.CanSet() {
			v.SetFloat(0)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			cleanStructFloats(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			cleanStructFloats(v.Index(i))
		}
	}
}

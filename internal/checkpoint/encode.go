package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format: a fixed 16-byte header followed by a gob stream holding the
// snapshots in order (one for Encode, k for EncodeSet).
//
//	bytes 0..3   magic "SPCK"
//	bytes 4..7   format version, big-endian uint32
//	bytes 8..11  payload length, big-endian uint32
//	bytes 12..15 CRC-32 (IEEE) of the payload
//
// gob rather than JSON because controller state legitimately contains
// non-finite floats (an uncontrolled CB budget is +Inf, the pre-first-tick
// control timestamp −Inf) and because gob round-trips float64 bit-exactly —
// a requirement for bit-identical crash/restore continuation. One stream
// per frame sends gob's type descriptors once, however many snapshots the
// frame holds, and makes a one-snapshot set exactly Encode's bytes.
const (
	magic      = "SPCK"
	headerLen  = 16
	maxPayload = 64 << 20 // a corrupt length field must not drive a 4 GiB allocation
)

// Encode serializes a snapshot into the framed wire format.
func Encode(s *Snapshot) ([]byte, error) {
	return EncodeSet([]*Snapshot{s})
}

// EncodeSet serializes snapshots, in order, into one frame.
func EncodeSet(ss []*Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hdr [12]byte
	buf.Write(hdr[:]) // reserved for version/length/CRC, patched below
	enc := gob.NewEncoder(&buf)
	for _, s := range ss {
		if s == nil {
			return nil, fmt.Errorf("checkpoint: encode nil snapshot")
		}
		if err := enc.Encode(s); err != nil {
			return nil, fmt.Errorf("checkpoint: encode: %w", err)
		}
	}
	out := buf.Bytes()
	payload := out[headerLen:]
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("checkpoint: snapshot payload %d bytes exceeds %d", len(payload), maxPayload)
	}
	binary.BigEndian.PutUint32(out[4:8], Version)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[12:16], crc32.ChecksumIEEE(payload))
	return out, nil
}

// Decode parses and validates a framed snapshot: a frame holding exactly
// one. Any corruption — bad magic, version skew, truncation, checksum
// mismatch, malformed gob, out-of-range fields — returns an error; Decode
// never panics, whatever the input (the fuzz target holds it to that).
func Decode(b []byte) (*Snapshot, error) {
	ss, err := DecodeSet(b)
	if err != nil {
		return nil, err
	}
	if len(ss) != 1 {
		return nil, fmt.Errorf("checkpoint: frame holds %d snapshots, want 1", len(ss))
	}
	return ss[0], nil
}

// DecodeSet parses and validates a frame of any number of snapshots, with
// Decode's guarantees.
func DecodeSet(b []byte) (ss []*Snapshot, err error) {
	// gob's decoder is defensive, but a decoder panic on hostile input
	// must surface as an error: the caller's response to a corrupt
	// checkpoint is the fail-safe path, not a crash loop.
	defer func() {
		if r := recover(); r != nil {
			ss, err = nil, fmt.Errorf("checkpoint: decode panic: %v", r)
		}
	}()

	if len(b) < headerLen {
		return nil, fmt.Errorf("checkpoint: %d bytes is shorter than the %d-byte header", len(b), headerLen)
	}
	if string(b[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", b[:4])
	}
	if v := binary.BigEndian.Uint32(b[4:8]); v != Version {
		return nil, fmt.Errorf("checkpoint: format version %d, this binary speaks %d", v, Version)
	}
	n := binary.BigEndian.Uint32(b[8:12])
	if n > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds %d", n, maxPayload)
	}
	payload := b[headerLen:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("checkpoint: payload is %d bytes, header says %d", len(payload), n)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[12:16]); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (got %08x, want %08x)", got, want)
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	for {
		snap := new(Snapshot)
		if err := dec.Decode(snap); err == io.EOF {
			return ss, nil
		} else if err != nil {
			return nil, fmt.Errorf("checkpoint: decode: %w", err)
		}
		if err := snap.Validate(); err != nil {
			return nil, err
		}
		ss = append(ss, snap)
	}
}

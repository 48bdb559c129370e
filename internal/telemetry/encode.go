package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendDecision appends d as one JSON line, byte for byte what
// json.Encoder (HTML escaping on) writes for it: the struct's field order
// and omitempty rules, encoding/json's float and string formats, F's
// null/"+Inf"/"-Inf" and the trailing newline. Like encoding/json it
// refuses NaN and ±Inf in a plain float64 field; the error is the one
// json.Encoder.Encode returns, and the appended bytes are then unusable.
//
// An element of a float slice whose bits equal its left neighbour's is
// copied from the neighbour's bytes instead of formatted again: exact by
// construction, and frequent in real traces (cores pinned at a P-state
// bound, jobs sharing an urgency weight).
func AppendDecision(b []byte, d *Decision) ([]byte, error) {
	e := recordEncoder{b: b}
	e.b = append(e.b, `{"schema_version":`...)
	e.b = strconv.AppendInt(e.b, int64(d.Schema), 10)
	e.float(`,"t":`, d.T)
	e.b = append(e.b, `,"policy":`...)
	e.b = appendString(e.b, d.Policy)
	if d.Mode != "" {
		e.b = append(e.b, `,"mode":`...)
		e.b = appendString(e.b, d.Mode)
	}
	if a := d.Alloc; a != nil {
		e.b = append(e.b, `,"alloc":{"pcb_w":`...)
		e.b = appendF(e.b, float64(a.PCbW))
		e.b = append(e.b, `,"pbatch_w":`...)
		e.b = appendF(e.b, float64(a.PBatchW))
		e.float(`,"reserve_w":`, a.ReserveW)
		e.float(`,"shift_w":`, a.ShiftW)
		e.float(`,"deadline_floor_w":`, a.DeadlineFloorW)
		e.float(`,"headroom_util":`, a.HeadroomUtil)
		e.float(`,"deadline_urgency":`, a.DeadlineUrgency)
		e.bool(`,"updated":`, a.Updated)
		e.b = append(e.b, '}')
	}
	if m := d.MPC; m != nil {
		e.b = append(e.b, `,"mpc":{"pfb_w":`...)
		e.b = appendF(e.b, float64(m.PfbW))
		e.float(`,"target_w":`, m.TargetW)
		floats(&e, `,"ref_traj_w":[`, m.RefTrajW)
		floats(&e, `,"r_weights":[`, m.RWeights)
		floats(&e, `,"freqs_ghz":[`, m.FreqsGHz)
		e.int(`,"clamped_lo":`, m.ClampedLo)
		e.int(`,"clamped_hi":`, m.ClampedHi)
		e.int(`,"qp_sweeps":`, m.QPSweeps)
		e.bool(`,"qp_converged":`, m.QPConverged)
		e.int(`,"locked_cores":`, m.LockedCores)
		e.float(`,"k_w_per_ghz":`, m.KWPerGHz)
		e.b = append(e.b, '}')
	}
	if g := d.Guard; g != nil {
		e.float(`,"guard":{"confidence":`, g.Confidence)
		e.bool(`,"degraded":`, g.Degraded)
		e.float(`,"rejected_total":`, g.RejectedTotal)
		e.bool(`,"ups_failed":`, g.UPSFailed)
		e.b = append(e.b, '}')
	}
	if u := d.UPS; u != nil {
		e.float(`,"ups":{"request_w":`, u.RequestW)
		e.float(`,"soc":`, u.SoC)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "}\n"...)
	return e.b, e.err
}

// recordEncoder is AppendDecision's buffer plus the first encoding error.
// Each method appends a literal key prefix, then the value.
type recordEncoder struct {
	b   []byte
	err error
}

func (e *recordEncoder) float(key string, v float64) {
	e.b = append(e.b, key...)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	e.b = appendFloat(e.b, v)
}

// floats writes a non-empty slice (the key opens the array); omitempty
// drops an empty one entirely. Elements are written as e.float writes a
// float64 and as F marshals itself for an F.
func floats[T float64 | F](e *recordEncoder, key string, vs []T) {
	if len(vs) == 0 {
		return
	}
	_, nullable := any(vs).([]F)
	e.b = append(e.b, key...)
	prev := len(e.b) // where the previous element's bytes start
	e.elem(float64(vs[0]), nullable)
	for i := 1; i < len(vs); i++ {
		end := len(e.b)
		e.b = append(e.b, ',')
		at := len(e.b)
		if math.Float64bits(float64(vs[i])) == math.Float64bits(float64(vs[i-1])) {
			e.b = append(e.b, e.b[prev:end]...)
		} else {
			e.elem(float64(vs[i]), nullable)
		}
		prev = at
	}
	e.b = append(e.b, ']')
}

// elem writes one array element: as F marshals v if nullable, else as a
// plain float64.
func (e *recordEncoder) elem(v float64, nullable bool) {
	if nullable {
		e.b = appendF(e.b, v)
		return
	}
	e.float("", v)
}

func (e *recordEncoder) int(key string, v int) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *recordEncoder) bool(key string, v bool) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendBool(e.b, v)
}

// appendF appends v as F marshals it: null for NaN, "+Inf"/"-Inf" as
// strings, anything else in encoding/json's float64 format.
func appendF(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "null"...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return appendFloat(b, v)
}

// appendFloat appends a finite v exactly as encoding/json formats a
// float64: the shortest representation that round-trips, in 'f' notation
// except below 1e-6 and from 1e21 up, where it switches to 'e' with a
// two-digit negative exponent trimmed (e-07 → e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way json.Encoder does with
// HTML escaping on: quotes and backslashes escaped, control characters as
// \b \f \n \r \t or \u00XX, the HTML specials <, > and & as \u00XX too,
// each invalid UTF-8 byte replaced by the escaped replacement character
// (\ufffd), and the line and paragraph separators U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

package main

import (
	"io"

	"sprintcon/internal/telemetry"
)

// streamFlushBytes bounds the render buffer: a batch reaches the
// connection in pieces of about this size, so a reader replaying a long
// stream holds one piece, not the whole rendered stream.
const streamFlushBytes = 32 << 10

// writeDecisions renders recs — records a telemetry.DecisionLog kept — as
// JSONL into buf and writes them to w, and returns buf for reuse by the
// next batch. Rendering happens here, on the reader's goroutine, so the
// simulation formats nothing for a stream nobody reads; the bytes are the
// ones the encoding sink would have written.
func writeDecisions(w io.Writer, buf []byte, recs telemetry.DecisionBatch) ([]byte, error) {
	buf = buf[:0]
	for i := range recs {
		d := recs.Decision(i)
		var err error
		// The log refused every record AppendDecision would refuse, so
		// this cannot fail; an error still ends the stream rather than
		// serving a torn line.
		if buf, err = telemetry.AppendDecision(buf, &d); err != nil {
			return buf, err
		}
		if len(buf) >= streamFlushBytes || i == len(recs)-1 {
			if _, err := w.Write(buf); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
	}
	return buf, nil
}

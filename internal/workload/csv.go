package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// TraceFromCSV loads an interactive demand trace from CSV with columns
// time_s,demand_frac (the format sprintsim -trace replays, and the natural
// shape for a production trace such as the paper's Wikipedia source).
// Timestamps must be ascending and evenly spaced; demand is clamped to
// [0, 1.2] like the generator's output.
func TraceFromCSV(r io.Reader) (*InteractiveTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: trace CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, errors.New("workload: empty trace CSV")
	}
	start := 0
	if _, err := strconv.ParseFloat(records[0][0], 64); err != nil {
		start = 1 // header row
	}
	rows := records[start:]
	if len(rows) < 2 {
		return nil, errors.New("workload: trace CSV needs at least two samples")
	}

	times := make([]float64, len(rows))
	demand := make([]float64, len(rows))
	for i, rec := range rows {
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d: bad time %q", i+start+1, rec[0])
		}
		d, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: row %d: bad demand %q", i+start+1, rec[1])
		}
		if d < 0 {
			d = 0
		}
		if d > 1.2 {
			d = 1.2
		}
		times[i] = t
		demand[i] = d
	}

	dt := times[1] - times[0]
	if dt <= 0 {
		return nil, errors.New("workload: trace timestamps must be ascending")
	}
	for i := 2; i < len(times); i++ {
		step := times[i] - times[i-1]
		if step <= 0 {
			return nil, fmt.Errorf("workload: timestamps not ascending at row %d", i+start+1)
		}
		if relErr := (step - dt) / dt; relErr > 0.01 || relErr < -0.01 {
			return nil, fmt.Errorf("workload: uneven step at row %d: %g vs %g", i+start+1, step, dt)
		}
	}
	return &InteractiveTrace{DtS: dt, Demand: demand}, nil
}

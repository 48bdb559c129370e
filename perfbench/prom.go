package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// parseProm reads the Prometheus text exposition format (0.0.4) that
// sprintd serves on /metrics and /api/v1/runs/{id}/metrics into a map from
// sample name — with its label set, as in `x_bucket{le="0.5"}`, when it
// has one — to value. Comment lines are skipped; NaN and ±Inf use the
// format's literal spellings. A malformed sample line is an error that
// names the line.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside a label set.
		name, val := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			name, val = line[:i+1], strings.TrimSpace(line[i+1:])
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, val = line[:i], strings.TrimSpace(line[i+1:])
		}
		// An optional timestamp may follow the value.
		if i := strings.IndexByte(val, ' '); i >= 0 {
			val = val[:i]
		}
		if name == "" || val == "" {
			return nil, fmt.Errorf("prometheus text line %d: no value in %q", n, line)
		}
		v, err := parsePromFloat(val)
		if err != nil {
			return nil, fmt.Errorf("prometheus text line %d: %w", n, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prometheus text: %w", err)
	}
	return out, nil
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

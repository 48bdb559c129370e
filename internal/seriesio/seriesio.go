// Package seriesio exports simulation time series as CSV and
// renders quick ASCII sparkline plots for terminal inspection of the
// paper's figures.
package seriesio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sprintcon/internal/sim"
)

// WriteCSV writes the series with one row per tick.
func WriteCSV(w io.Writer, s *sim.Series) error {
	cw := csv.NewWriter(w)
	header := []string{"time_s", "total_w", "cb_w", "ups_w", "pcb_target_w", "pbatch_target_w", "freq_inter_norm", "freq_batch_norm", "ups_soc"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range s.Time {
		row := []string{
			f(s.Time[i]), f(s.TotalW[i]), f(s.CBW[i]), f(s.UPSW[i]),
			f(s.PCbW[i]), f(s.PBatchW[i]), f(s.FreqInter[i]), f(s.FreqBatch[i]), f(s.SoC[i]),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Sparkline renders values as a one-line unicode sparkline, downsampled to
// width columns (mean pooling). Empty input yields an empty string.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	pooled := pool(values, width)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range pooled {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(pooled))
	}
	var b strings.Builder
	for _, v := range pooled {
		if math.IsNaN(v) {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// PlotRow formats a labeled sparkline with its range, e.g.
// "total   ▁▃▅▇ [2400, 4100] W".
func PlotRow(label string, values []float64, width int, unit string) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return fmt.Sprintf("%-12s (no data)", label)
	}
	return fmt.Sprintf("%-12s %s [%.2f, %.2f] %s", label, Sparkline(values, width), lo, hi, unit)
}

// pool mean-pools values into width buckets (NaNs skipped; all-NaN buckets
// stay NaN).
func pool(values []float64, width int) []float64 {
	if len(values) <= width {
		out := make([]float64, len(values))
		copy(out, values)
		return out
	}
	out := make([]float64, width)
	for b := 0; b < width; b++ {
		start := b * len(values) / width
		end := (b + 1) * len(values) / width
		var sum float64
		var n int
		for _, v := range values[start:end] {
			if math.IsNaN(v) {
				continue
			}
			sum += v
			n++
		}
		if n == 0 {
			out[b] = math.NaN()
		} else {
			out[b] = sum / float64(n)
		}
	}
	return out
}

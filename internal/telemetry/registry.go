// Package telemetry is the observability layer of the reproduction: a
// metrics registry the engine and every policy report into, a structured
// decision-trace sink that captures *why* each control period chose the
// actuation it did, a live run-status snapshot, and exporters (Prometheus
// text format, JSON status, pprof) that make a running simulation
// inspectable from outside the process.
//
// The paper's core claim is controllability; a controller an operator
// cannot observe is not controllable in any useful sense. Every loop —
// the power load allocator, the MPC server power controller, the UPS
// power controller, the measurement guard and the watchdogs — therefore
// registers its internal state here, and the same registry serves the
// SGCT baselines so policies are compared through identical telemetry.
//
// Design constraints, in priority order:
//
//   - Disabled telemetry must cost nothing measurable: every method is
//     safe on a nil receiver and a nil *Registry hands out nil
//     instruments, so un-instrumented runs stay on the legacy hot path
//     (one nil check per call site).
//   - The hot path must not allocate: counters, gauges and histograms
//     are fixed structs updated with atomics; registration (the only
//     allocating operation) happens once at policy start.
//   - Recorded values must be deterministic where the underlying
//     quantities are deterministic: wall-clock timings go exclusively
//     into histograms that golden comparisons exclude, never into the
//     decision trace.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 metric. All methods are
// safe on a nil receiver (no-ops), so call sites need no telemetry-enabled
// branching.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative or NaN deltas are ignored
// (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || math.IsNaN(v) || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are set
// at registration and never change, so Observe is a binary search plus two
// atomic adds — no allocation, no locks.
type Histogram struct {
	upper  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Counter // reuses the CAS float accumulation
}

// Observe records one sample (no-op on nil; NaN samples are dropped).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(math.Max(v, 0))
}

// Count returns the number of samples observed (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples, with negatives clamped to 0
// (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DefTimeBuckets are the default wall-clock-seconds buckets, spanning the
// sub-microsecond QP solves of a small rack up to pathological multi-second
// stalls.
func DefTimeBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
}

// LinearBuckets returns count buckets starting at start, spaced by width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// MetricKind discriminates the registry's instrument types.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// metric is one registered instrument.
type metric struct {
	name, help string
	kind       MetricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// Registry holds a run's instruments. A nil *Registry is a valid disabled
// registry: registration returns nil instruments whose methods no-op.
// Registration takes a mutex; the instruments themselves are lock-free, so
// concurrent runs may share a registry only if their metric names differ
// (per-run registries are the normal pattern — see sim.RunOptions).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order, for stable rendering
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or fetches) the named counter. Returns nil on a nil
// registry; panics if the name is already registered as a different kind
// (a programming error, like prometheus client_golang).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or fetches) the named gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or fetches) the named histogram with the given
// ascending bucket upper bounds (a +Inf bucket is implicit). Returns nil on
// a nil registry. Re-registration returns the existing histogram; its
// original buckets win.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindHistogram)
	if m.hist == nil {
		upper := append([]float64(nil), buckets...)
		sort.Float64s(upper)
		m.hist = &Histogram{
			upper:  upper,
			counts: make([]atomic.Uint64, len(upper)+1),
		}
	}
	return m.hist
}

// lookup finds or creates the named metric, enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind MetricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// BucketCount is one cumulative histogram bucket of a snapshot.
type BucketCount struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      uint64  // cumulative count ≤ UpperBound
}

// Point is one metric's state in a snapshot.
type Point struct {
	Name string
	Help string
	Kind MetricKind
	// Value holds the counter or gauge value; for histograms it is the
	// sample sum.
	Value float64
	// Count and Buckets are histogram-only.
	Count   uint64
	Buckets []BucketCount
}

// Snapshot is a point-in-time copy of a registry, in registration order.
type Snapshot []Point

// Snapshot captures every instrument's current value (nil registry yields a
// nil snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.order))
	for _, name := range r.order {
		m := r.metrics[name]
		p := Point{Name: m.name, Help: m.help, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			p.Value = m.counter.Value()
		case KindGauge:
			p.Value = m.gauge.Value()
		case KindHistogram:
			p.Value = m.hist.Sum()
			p.Count = m.hist.Count()
			var cum uint64
			for i, ub := range m.hist.upper {
				cum += m.hist.counts[i].Load()
				p.Buckets = append(p.Buckets, BucketCount{UpperBound: ub, Count: cum})
			}
			cum += m.hist.counts[len(m.hist.upper)].Load()
			p.Buckets = append(p.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
		}
		out = append(out, p)
	}
	return out
}

// Value returns the named point's value and whether it exists.
func (s Snapshot) Value(name string) (float64, bool) {
	for _, p := range s {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// Get returns the named point and whether it exists.
func (s Snapshot) Get(name string) (Point, bool) {
	for _, p := range s {
		if p.Name == name {
			return p, true
		}
	}
	return Point{}, false
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). A nil registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, p := range r.Snapshot() {
		if p.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(p.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
			return err
		}
		switch p.Kind {
		case KindHistogram:
			for _, b := range p.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatFloat(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", p.Name, le, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", p.Name, formatFloat(p.Value), p.Name, p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", p.Name, formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects (shortest exact
// decimal; NaN/Inf spelled out). This is the exporter's own sanitization
// layer: gauges are routinely Set straight from plant state (lease age is
// NaN before the first grant, an uncontrolled CB budget is +Inf), and those
// values must reach the wire as the exposition format's literal spellings —
// "NaN", "+Inf", "-Inf" — never as Go's "%f" renderings of them.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP annotation per the text exposition format:
// backslashes and newlines are the only characters with escape syntax in
// HELP text, and an unescaped newline would split the annotation into a
// garbage line no parser accepts.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

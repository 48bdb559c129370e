package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ticks_total", "ticks")
	c.Inc()
	c.Add(2.5)
	c.Add(-1)         // ignored: counters are monotone
	c.Add(math.NaN()) // ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	g := r.Gauge("soc", "state of charge")
	g.Set(0.75)
	g.Set(0.5)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %g, want 0.5", got)
	}
	// Re-registration returns the same instrument.
	if r.Counter("ticks_total", "ticks") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.Sum())
	}
	p, ok := r.Snapshot().Get("lat")
	if !ok {
		t.Fatal("lat missing from snapshot")
	}
	wantCum := []uint64{2, 3, 4, 5} // le=1, le=10, le=100, le=+Inf
	if len(p.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(p.Buckets), len(wantCum))
	}
	for i, b := range p.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cum = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(p.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", p.Buckets[3].UpperBound)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// None of these may panic.
	c.Inc()
	c.Add(1)
	g.Set(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var st *RunStatus
	st.Set(StatusSnapshot{NowS: 1})
	if st.Get() != (StatusSnapshot{}) {
		t.Fatal("nil status must read zero")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cb_trips_total", "breaker trips").Add(2)
	r.Gauge("ups_soc", "state of charge").Set(0.25)
	h := r.Histogram("mpc_solve_seconds", "solve wall time", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP cb_trips_total breaker trips",
		"# TYPE cb_trips_total counter",
		"cb_trips_total 2",
		"# TYPE ups_soc gauge",
		"ups_soc 0.25",
		"# TYPE mpc_solve_seconds histogram",
		`mpc_solve_seconds_bucket{le="0.001"} 1`,
		`mpc_solve_seconds_bucket{le="0.1"} 2`,
		`mpc_solve_seconds_bucket{le="+Inf"} 2`,
		"mpc_solve_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Every non-comment line must parse as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("h", "", LinearBuckets(0, 10, 5))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 50))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %g, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("n", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", DefTimeBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
}

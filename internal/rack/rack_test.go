package rack

import (
	"math"
	"testing"

	"sprintcon/internal/cpu"
	"sprintcon/internal/workload"
)

// testJobs returns one job per batch core of cfg, cycling through the SPEC
// CPU2006 models, each started at 0 and due at deadline(i).
func testJobs(t testing.TB, cfg Config, deadline func(i int) float64) []workload.BatchJob {
	t.Helper()
	specs := workload.SpecCPU2006()
	jobs := make([]workload.BatchJob, cfg.NumServers*cfg.BatchCoresPerServer)
	for i := range jobs {
		j, err := workload.NewBatchJob(specs[i%len(specs)], 0, deadline(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	return jobs
}

// due900 gives every job a 900 s deadline.
func due900(int) float64 { return 900 }

// newRack builds a rack of cfg with testJobs' jobs, due at 900 s.
func newRack(t testing.TB, cfg Config) *Rack {
	t.Helper()
	r, err := New(cfg, testJobs(t, cfg, due900))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustNew(t *testing.T) *Rack {
	t.Helper()
	return newRack(t, DefaultConfig())
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero servers", func(c *Config) { c.NumServers = 0 }},
		{"too many cores", func(c *Config) { c.InteractiveCoresPerServer = 8; c.BatchCoresPerServer = 8 }},
		{"zero batch cores", func(c *Config) { c.BatchCoresPerServer = 0 }},
		{"negative noise", func(c *Config) { c.MonitorNoiseStd = -1 }},
		{"bad server", func(c *Config) { c.ServerParams.IdleW = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg, testJobs(t, cfg, due900)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTopology(t *testing.T) {
	r := mustNew(t)
	if len(r.freq) != 16*8 || len(r.util) != 16*8 {
		t.Fatalf("core table of %d/%d entries, want 16×8", len(r.freq), len(r.util))
	}
	if len(r.InteractiveCores()) != 64 || len(r.BatchCores()) != 64 {
		t.Fatalf("core partition %d/%d, want 64/64", len(r.InteractiveCores()), len(r.BatchCores()))
	}
	// Interactive cores start at peak; batch cores at the floor.
	for _, ref := range r.InteractiveCores() {
		if f, _, cl := r.Core(ref); f != 2.0 || cl != cpu.Interactive {
			t.Fatalf("interactive core %v: %v at %v, want interactive at 2.0", ref, cl, f)
		}
	}
	for _, ref := range r.BatchCores() {
		if f, _, cl := r.Core(ref); f != 0.4 || cl != cpu.Batch {
			t.Fatalf("batch core %v: %v at %v, want batch at 0.4", ref, cl, f)
		}
	}
}

func TestRackMaxPowerMatchesPaper(t *testing.T) {
	// Paper: 16 servers × 300 W = 4.8 kW maximum.
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0
	cfg.UtilJitterStd = 0
	cfg.ServerParams.FanW = 0
	r := newRack(t, cfg)
	for s := 0; s < 16; s++ {
		for c := 0; c < 8; c++ {
			r.SetCoreFreq(CoreRef{Server: s, Core: c}, 2.0)
		}
	}
	for k := range r.util {
		r.util[k] = 1
	}
	if got := r.TruePower(); math.Abs(got-4800) > 1e-6 {
		t.Fatalf("max rack power = %v, want 4800", got)
	}
}

func TestRackIdlePower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerParams.FanW = 0
	r := newRack(t, cfg)
	if got := r.TruePower(); math.Abs(got-16*150) > 1e-6 {
		t.Fatalf("idle rack power = %v, want 2400", got)
	}
}

func TestBindAndAdvanceJobs(t *testing.T) {
	r := mustNew(t)
	// Run all batch cores at peak for 60 s; every job must make progress.
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 2.0
	}
	if _, err := r.SetBatchFreqsInto(freqs, make([]float64, len(freqs))); err != nil {
		t.Fatal(err)
	}
	r.AdvanceBatch(60, 0)
	for i := range r.BatchJobs() {
		if r.BatchJobs()[i].Progress() <= 0 {
			t.Fatalf("job %v made no progress", r.BatchCores()[i])
		}
	}
	// Batch utilization reflects the specs.
	for _, ref := range r.BatchCores() {
		if _, u, _ := r.Core(ref); u < 0.9 {
			t.Fatalf("batch core %v util %v, want spec value ≥0.9", ref, u)
		}
	}
}

// New takes exactly one job per batch core.
func TestNewRejectsJobCountMismatch(t *testing.T) {
	cfg := DefaultConfig()
	jobs := testJobs(t, cfg, due900)
	for _, n := range []int{0, 1, len(jobs) - 1} {
		if _, err := New(cfg, jobs[:n]); err == nil {
			t.Fatalf("%d jobs for %d batch cores: no error", n, len(jobs))
		}
	}
	extra := append(testJobs(t, cfg, due900), jobs[0])
	if _, err := New(cfg, extra); err == nil {
		t.Fatalf("%d jobs for %d batch cores: no error", len(extra), len(jobs))
	}
}

// BatchJobs is the job table New was given, in BatchCores order: the rack
// advances the jobs in place rather than in a copy.
func TestBatchJobsFollowBatchCores(t *testing.T) {
	cfg := DefaultConfig()
	jobs := testJobs(t, cfg, due900)
	r, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	table := r.BatchJobs()
	if len(table) != len(r.BatchCores()) {
		t.Fatalf("%d jobs for %d batch cores", len(table), len(r.BatchCores()))
	}
	for i, ref := range r.BatchCores() {
		if &table[i] != &jobs[i] {
			t.Fatalf("core %v: BatchJobs()[%d] is not the job New was given", ref, i)
		}
	}
	r.AdvanceBatch(10, 0)
	if jobs[0].Progress() <= 0 {
		t.Fatal("the job New was given made no progress on its core")
	}
}

func TestApplyInteractiveDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UtilJitterStd = 0
	r := newRack(t, cfg)
	r.ApplyInteractiveDemand(0.7)
	for _, ref := range r.InteractiveCores() {
		if _, u, _ := r.Core(ref); math.Abs(u-0.7) > 1e-9 {
			t.Fatalf("core %v util %v, want 0.7", ref, u)
		}
	}
	r.ApplyInteractiveDemand(1.5) // saturates
	for _, ref := range r.InteractiveCores() {
		if _, u, _ := r.Core(ref); u != 1 {
			t.Fatalf("core %v util %v, want clamp to 1", ref, u)
		}
	}
}

func TestInteractiveUtilizationRisesWhenThrottled(t *testing.T) {
	// Demand is defined relative to a peak-frequency core: the same
	// request stream makes a throttled core proportionally busier.
	cfg := DefaultConfig()
	cfg.UtilJitterStd = 0
	r := newRack(t, cfg)
	r.SetInteractiveFreq(1.0) // half of peak
	r.ApplyInteractiveDemand(0.3)
	for _, ref := range r.InteractiveCores() {
		if _, u, _ := r.Core(ref); math.Abs(u-0.6) > 1e-9 {
			t.Fatalf("core %v util %v, want 0.6 (= 0.3 x 2.0/1.0)", ref, u)
		}
	}
	// Saturation: demand beyond the throttled capacity clamps to 1.
	r.ApplyInteractiveDemand(0.7)
	for _, ref := range r.InteractiveCores() {
		if _, u, _ := r.Core(ref); u != 1 {
			t.Fatalf("core %v util %v, want saturated", ref, u)
		}
	}
}

func TestSetBatchFreqsQuantizesAndValidates(t *testing.T) {
	r := mustNew(t)
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.234
	}
	applied, err := r.SetBatchFreqsInto(freqs, make([]float64, len(freqs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range applied {
		if f != 1.2 {
			t.Fatalf("applied %v, want quantized 1.2", f)
		}
	}
	got := r.BatchFreqs()
	for _, f := range got {
		if f != 1.2 {
			t.Fatalf("BatchFreqs returned %v", f)
		}
	}
	if _, err := r.SetBatchFreqsInto(freqs[:3], make([]float64, 3)); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestMeasuredPowerNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0.01
	r := newRack(t, cfg)
	truth := r.TruePower()
	var deviated bool
	for i := 0; i < 32; i++ {
		m := r.MeasuredPower()
		if math.Abs(m-truth) > 0.1*truth {
			t.Fatalf("measurement %v implausibly far from %v", m, truth)
		}
		if m != truth {
			deviated = true
		}
	}
	if !deviated {
		t.Fatal("noisy monitor never deviated from truth")
	}
	cfg.MonitorNoiseStd = 0
	r2 := newRack(t, cfg)
	if r2.MeasuredPower() != r2.TruePower() {
		t.Fatal("zero noise must measure exactly")
	}
}

func TestBatchFeedbackTracksTrueBatchPower(t *testing.T) {
	// Eq. (6) with exact measurement should approximate the true batch
	// power within the interactive model error.
	cfg := DefaultConfig()
	cfg.MonitorNoiseStd = 0
	cfg.UtilJitterStd = 0
	cfg.ServerParams.FanW = 0 // remove disturbance for the exactness check
	r := newRack(t, cfg)
	r.ApplyInteractiveDemand(0.6)
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.5
	}
	r.SetBatchFreqsInto(freqs, make([]float64, len(freqs)))
	r.AdvanceBatch(1, 0)

	fb := r.BatchFeedback(r.TruePower())
	truth := r.TruePowerOfClass(cpu.Batch)
	if rel := math.Abs(fb-truth) / truth; rel > 0.02 {
		t.Fatalf("feedback %v vs true batch power %v (rel err %.3f)", fb, truth, rel)
	}
}

func TestBatchFeedbackNeverNegative(t *testing.T) {
	r := mustNew(t)
	if fb := r.BatchFeedback(0); fb < 0 {
		t.Fatalf("feedback = %v, want clamped ≥ 0", fb)
	}
}

func TestRWeights(t *testing.T) {
	cfg := DefaultConfig()
	r, err := New(cfg, testJobs(t, cfg, func(i int) float64 { return 600 + float64(i%3)*150 }))
	if err != nil {
		t.Fatal(err)
	}
	w := r.RWeightsInto(make([]float64, len(r.BatchCores())), 0)
	if len(w) != 64 {
		t.Fatalf("weights length %d", len(w))
	}
	for i := range w {
		if want := r.BatchJobs()[i].RWeight(0); w[i] <= 0 || w[i] != want {
			t.Fatalf("core %v weight %v, want its job's %v", r.BatchCores()[i], w[i], want)
		}
	}
}

func TestMeanFreqNormMetrics(t *testing.T) {
	r := mustNew(t)
	if got := r.MeanInteractiveFreqNorm(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("interactive norm freq %v, want 1 (peak)", got)
	}
	if got := r.MeanBatchFreqNorm(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("batch norm freq %v, want 0.2 (0.4/2.0)", got)
	}
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1.0
	}
	r.SetBatchFreqsInto(freqs, make([]float64, len(freqs)))
	if got := r.MeanBatchFreqNorm(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("batch norm freq %v, want 0.5", got)
	}
}

func TestClassPowerPartition(t *testing.T) {
	r := mustNew(t)
	r.ApplyInteractiveDemand(0.8)
	total := r.TruePower()
	sum := r.TruePowerOfClass(cpu.Interactive) + r.TruePowerOfClass(cpu.Batch) + r.TruePowerOfClass(cpu.Idle)
	if math.Abs(total-sum) > 1e-6 {
		t.Fatalf("class powers %v ≠ total %v", sum, total)
	}
}

// TruePowerOfClass returns the exact rack power attributable to a class:
// the test oracle for BatchFeedback's Eq. (6) estimate.
func (r *Rack) TruePowerOfClass(cl cpu.Class) float64 {
	nc := r.cfg.ServerParams.Cores
	classes := make([]cpu.Class, nc)
	for c := range classes {
		classes[c] = r.class(c)
	}
	var p float64
	for s, st := range r.faults {
		if st.Offline {
			continue
		}
		base := s * nc
		p += r.cfg.ServerParams.PowerOfClass(r.freq[base:base+nc], r.util[base:base+nc], classes, cl, r.env)
	}
	return p
}

// pStates lists the P-states of r's table in ascending order, read back
// through Quantize on a grid finer than the table's step.
func pStates(r *Rack) []float64 {
	tab := r.cfg.ServerParams.PStates
	var out []float64
	for i := 0; ; i++ {
		f := tab.Min() + float64(i)*0.01
		if f > tab.Max() {
			return out
		}
		if q := tab.Quantize(f); len(out) == 0 || q != out[len(out)-1] {
			out = append(out, q)
		}
	}
}

// The write rule must return and store what quantizing every request does,
// from every table entry as the core's frequency, for every entry, the
// values one ulp around each entry and midway between entries, and
// requests off the table; the generation moves exactly when a write
// changes the core's bits.
func TestSetFreqMatchesReference(t *testing.T) {
	r := mustNew(t)
	fs := pStates(r)
	if len(fs) != 17 {
		t.Fatalf("%d P-states read back, want 17", len(fs))
	}
	var req []float64
	for i, f := range fs {
		req = append(req, f, math.Nextafter(f, 0), math.Nextafter(f, 3))
		if i > 0 {
			mid := fs[i-1] + (f-fs[i-1])/2
			req = append(req, mid, math.Nextafter(mid, 0), math.Nextafter(mid, 3))
		}
	}
	req = append(req, 0, math.Copysign(0, -1), -1, 0.1, 2.5, math.Inf(1), math.Inf(-1), math.NaN())
	ref := CoreRef{Server: 3, Core: 5}
	k := at(r, ref)
	for _, cur := range fs {
		for _, f := range req {
			r.freq[k] = cur
			gen := r.gen
			want := r.cfg.ServerParams.PStates.Quantize(f)
			got := r.SetCoreFreq(ref, f)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(r.freq[k]) != math.Float64bits(want) {
				t.Fatalf("from %v, SetCoreFreq(%v) = %v (core %v), reference %v", cur, f, got, r.freq[k], want)
			}
			if moved := r.gen != gen; moved != (math.Float64bits(want) != math.Float64bits(cur)) {
				t.Fatalf("from %v, SetCoreFreq(%v) to %v moved the generation: %v", cur, f, want, moved)
			}
		}
	}
}

// A core's class follows from its position in its server, a frequency
// write is quantized to the P-state table, and a stored utilization is
// clamped to [0, 1].
func TestCoreStateManagement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InteractiveCoresPerServer = 2
	cfg.BatchCoresPerServer = 3
	r := newRack(t, cfg)
	want := []cpu.Class{cpu.Interactive, cpu.Interactive, cpu.Batch, cpu.Batch, cpu.Batch, cpu.Idle, cpu.Idle, cpu.Idle}
	for s := 0; s < cfg.NumServers; s++ {
		for c, wc := range want {
			if _, _, cl := r.Core(CoreRef{Server: s, Core: c}); cl != wc {
				t.Fatalf("core s%d/c%d is %v, want %v", s, c, cl, wc)
			}
		}
	}
	ref := CoreRef{Server: 2, Core: 3}
	if applied := r.SetCoreFreq(ref, 1.234); applied != 1.2 {
		t.Fatalf("SetCoreFreq applied %v, want quantized 1.2", applied)
	}
	if f, _, _ := r.Core(ref); f != 1.2 {
		t.Fatalf("core holds %v after the write, want 1.2", f)
	}
	for _, tc := range []struct{ in, want float64 }{{1.7, 1}, {-0.5, 0}, {0.25, 0.25}} {
		st := r.ExportState()
		st.Cores[ref.Server][ref.Core].Util = tc.in
		if err := r.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if _, u, _ := r.Core(ref); u != tc.want {
			t.Fatalf("restored utilization %v stored as %v, want %v", tc.in, u, tc.want)
		}
	}
}

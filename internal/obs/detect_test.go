package obs

import (
	"math"
	"testing"
)

func TestLatchSustainAndRefire(t *testing.T) {
	var l latch
	if l.update(true, 2) {
		t.Fatal("fired before sustain count reached")
	}
	if !l.update(true, 2) {
		t.Fatal("did not fire at sustain count")
	}
	if l.update(true, 2) {
		t.Fatal("re-fired while the episode was still active")
	}
	// Clearing the condition closes the episode; the next sustained run
	// opens a fresh one.
	if l.update(false, 2) {
		t.Fatal("fired on a cleared condition")
	}
	l.update(true, 2)
	if !l.update(true, 2) {
		t.Fatal("did not fire on the second episode")
	}
}

func TestLatchTransientRejected(t *testing.T) {
	var l latch
	for i := 0; i < 10; i++ {
		if l.update(i%2 == 0, 2) {
			t.Fatal("alternating one-tick transients must never fire with sustain 2")
		}
	}
}

func TestFlapRingWindow(t *testing.T) {
	var f flapRing
	for _, at := range []float64{10, 50, 100} {
		f.push(at)
	}
	// The window is half-open: an entry exactly at `since` is already out.
	if got := f.countSince(9); got != 3 {
		t.Fatalf("countSince(9) = %d, want 3", got)
	}
	if got := f.countSince(10); got != 2 {
		t.Fatalf("countSince(10) = %d, want 2", got)
	}
	if got := f.countSince(60); got != 1 {
		t.Fatalf("countSince(60) = %d, want 1", got)
	}
	// Overflow past the ring capacity keeps only the newest entries.
	for i := 0; i < 20; i++ {
		f.push(200 + float64(i))
	}
	if got := f.countSince(0); got != 8 {
		t.Fatalf("after overflow countSince(0) = %d, want ring capacity 8", got)
	}
}

// TestUPSGaugeDriftDirection pins the gauge-consistency check's asymmetry:
// an honest discharge accumulates no drift (observed SoC falls at least as
// fast as the delivered energy requires), while a gauge reading high — SoC
// frozen during discharge — accumulates drift and fires the UPS detector.
func TestUPSGaugeDriftDirection(t *testing.T) {
	cfg := DefaultDetectorConfig()

	honest := NewPlane(0, cfg)
	soc := 1.0
	for i := 0; i < 60; i++ {
		// 400 Wh capacity, 720 W delivered: SoC drops 0.0005 per 1 s tick —
		// exactly the physically possible trajectory.
		honest.ObserveTick(float64(i), TickSignals{
			SoC: soc, UPSDeliveredW: 720, UPSCapacityWh: 400, TripMargin: 0.5, Confidence: 1,
		})
		soc -= 720.0 / 3600 / 400
	}
	for _, a := range honest.Alerts() {
		if a.Detector == DetectorUPS {
			t.Fatalf("honest discharge raised a UPS alert: %+v", a)
		}
	}

	lying := NewPlane(0, cfg)
	for i := 0; i < 60; i++ {
		// Same delivery, but the gauge never moves.
		lying.ObserveTick(float64(i), TickSignals{
			SoC: 1.0, UPSDeliveredW: 720, UPSCapacityWh: 400, TripMargin: 0.5, Confidence: 1,
		})
	}
	var fired bool
	for _, a := range lying.Alerts() {
		if a.Detector == DetectorUPS {
			fired = true
		}
	}
	if !fired {
		t.Fatal("frozen gauge during discharge did not raise a UPS alert")
	}
}

func TestSensorDetectorGapAndConfidence(t *testing.T) {
	cfg := DefaultDetectorConfig()
	for name, sig := range map[string]TickSignals{
		"confidence": {TripMargin: 0.5, SoC: 1, Confidence: cfg.ConfidenceFloor / 2},
		"gap":        {TripMargin: 0.5, SoC: 1, Confidence: 1, SensorGapW: cfg.SensorGapW * 2},
	} {
		p := NewPlane(0, cfg)
		for i := 0; i <= cfg.SustainTicks; i++ {
			p.ObserveTick(float64(i), sig)
		}
		var fired bool
		for _, a := range p.Alerts() {
			if a.Detector == DetectorSensor {
				fired = true
			}
		}
		if !fired {
			t.Fatalf("%s violation did not fire the sensor detector", name)
		}
	}
}

func TestLeaseFlapDetector(t *testing.T) {
	cfg := DefaultDetectorConfig()
	p := NewPlane(0, cfg)
	// FlapCount expiries inside FlapWindowS: the churn detector fires on
	// the last one; each expiry also raises its own rack-degraded alert.
	step := cfg.FlapWindowS / float64(cfg.FlapCount+1)
	for i := 0; i < cfg.FlapCount; i++ {
		now := float64(i) * step
		p.LeaseExpired(now, uint64(i+1))
		p.LeaseResynced(now+1, uint64(i+2))
	}
	var flap, degraded int
	for _, a := range p.Alerts() {
		switch a.Detector {
		case DetectorLeaseFlap:
			flap++
		case DetectorRackDegraded:
			degraded++
			if a.SpanID == 0 {
				t.Fatal("rack-degraded alert lost its degraded-span anchor")
			}
		}
	}
	if flap != 1 {
		t.Fatalf("lease-flap fired %d times, want 1", flap)
	}
	if degraded != cfg.FlapCount {
		t.Fatalf("rack-degraded fired %d times, want %d", degraded, cfg.FlapCount)
	}
	// Each resync closed its degraded span.
	for _, s := range p.Spans() {
		if s.Kind == "degraded" && s.Open() {
			t.Fatalf("degraded span %d left open after resync", s.ID)
		}
	}
}

func TestObserveBeatAgeSilentLatch(t *testing.T) {
	cfg := DefaultDetectorConfig()
	p := NewPlane(CoordinatorSource, cfg)
	grant := uint64(7)
	// Fresh beats: no alert however long we watch.
	for i := 0; i < 20; i++ {
		p.ObserveBeatAge(float64(i), 2, 1, grant)
	}
	if n := len(p.Alerts()); n != 0 {
		t.Fatalf("fresh heartbeats raised %d alerts", n)
	}
	// Age climbing past the threshold fires once, with the last grant as
	// the causal anchor; NaN age (no beat ever) counts as silent too.
	for i := 0; i < 10; i++ {
		p.ObserveBeatAge(float64(20+i), 2, cfg.SilentAfterS+float64(i), grant)
	}
	p.ObserveBeatAge(40, 3, math.NaN(), grant)
	p.ObserveBeatAge(41, 3, math.NaN(), grant)
	p.ObserveBeatAge(42, 3, math.NaN(), grant)
	alerts := p.Alerts()
	var r2, r3 int
	for _, a := range alerts {
		if a.Detector != DetectorRackSilent {
			t.Fatalf("unexpected detector %q", a.Detector)
		}
		if a.SpanID != grant {
			t.Fatalf("silent alert anchor = %d, want grant %d", a.SpanID, grant)
		}
		switch a.Rack {
		case 2:
			r2++
		case 3:
			r3++
		}
	}
	if r2 != 1 {
		t.Fatalf("rack 2 silent fired %d times, want 1", r2)
	}
	if r3 != 0 {
		t.Fatalf("rack 3 (NaN age) fired %d times, want 0 — NaN must not satisfy age > threshold", r3)
	}
}

// TestNilPlaneNoOps pins the zero-cost-when-disabled contract: every hook
// on a nil plane returns without touching anything.
func TestNilPlaneNoOps(t *testing.T) {
	var p *Plane
	p.ObserveTick(0, TickSignals{})
	p.ObserveControl(0, 1, "m")
	p.ObserveLink(1)
	p.LeaseAccepted(0, 1, 1)
	p.LeaseExpired(0, 1)
	p.LeaseResynced(0, 1)
	p.HeartbeatSent(0, 1)
	p.ObserveBeatAge(0, 0, 99, 0)
	if p.GrantSpan(0, 0, 1, false, false, 0) != 0 {
		t.Fatal("nil GrantSpan must return 0")
	}
	if p.Alerts() != nil || p.Spans() != nil || p.Tracer() != nil {
		t.Fatal("nil plane leaked state")
	}
}

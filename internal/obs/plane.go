// Package obs is the causal observability plane: deterministic lease and
// control-period spans, streaming per-rack health rollups, and anomaly
// detectors that turn raw control-plane signals into structured alerts.
//
// The plane answers the operational questions the lease link (DESIGN.md
// §12) created: "why is this rack degraded?" is a walk up the span tree
// from the rack's open degraded span to the grant whose loss caused it;
// "is this rack healthy?" is a windowed rollup query; "did anything go
// wrong?" is the alert list. Everything is a function of simulation time
// and deterministic counters — no wall clock, no randomness — so traces
// from two identical seeded runs are byte-identical and diffable, exactly
// like decision traces.
//
// Cost contract (matching package telemetry): a nil *Plane is a valid
// disabled plane whose methods no-op after one nil check, so the tick path
// of an unobserved run is untouched — zero allocations, no locks.
package obs

import (
	"fmt"
	"sync"

	"sprintcon/internal/telemetry"
)

// TickSignals is the per-tick controller/plant observation a rack's policy
// feeds its plane. All fields are the controller's *observed* values (the
// ones fault injection filters), so the detectors see what the controller
// saw — a lying sensor is caught by its inconsistency with physics, not by
// peeking at ground truth.
type TickSignals struct {
	// DtS is the tick length in seconds: the sampling period of the
	// per-tick detectors.
	DtS float64
	// TripMargin is 1 − breaker thermal fraction.
	TripMargin float64
	// SoC is the observed UPS state of charge.
	SoC float64
	// UPSDeliveredW is the UPS discharge delivered last tick.
	UPSDeliveredW float64
	// UPSCapacityWh is the battery capacity (for gauge-consistency checks).
	UPSCapacityWh float64
	// Overloading reports whether the effective CB budget exceeds rated.
	Overloading bool
	// Confidence is the measurement guard's confidence (1 when the policy
	// runs unhardened).
	Confidence float64
	// SensorGapW is |guarded power reading − design-model estimate|: a
	// sustained gap flags telemetry the guard cannot reject (e.g. delayed
	// readings, which pass freeze and slew checks but lag the plant).
	SensorGapW float64
	// LockedCores counts cores excluded from actuation (stuck or offline).
	LockedCores int
	// ActErrGHz is the worst per-core |commanded − applied| frequency gap
	// at the last control period.
	ActErrGHz float64
	// UPSFailed is the UPS delivery watchdog's sticky verdict.
	UPSFailed bool
	// Urgency is the deadline urgency (max required/peak frequency).
	Urgency float64
}

// Plane is one source's observability state: a tracer, a rollup set and
// the detector latches. Racks each own a plane; the cluster coordinator
// owns one with rack index CoordinatorSource.
type Plane struct {
	rack int
	cfg  DetectorConfig

	mu       sync.Mutex
	tr       *Tracer
	health   *RackHealth
	det      detectState
	silent   []latch // coordinator plane only: per-rack silence latches
	alerts   []Alert
	cause    uint64 // current lease anchor span (accept/bootstrap)
	degSpan  uint64 // open degraded span, 0 when coordinated
	degraded bool
}

// NewPlane returns an enabled plane for the given rack (CoordinatorSource
// for the coordinator). A zero cfg selects DefaultDetectorConfig.
func NewPlane(rack int, cfg DetectorConfig) *Plane {
	if cfg == (DetectorConfig{}) {
		cfg = DefaultDetectorConfig()
	}
	return &Plane{rack: rack, cfg: cfg, tr: NewTracer(rack), health: NewRackHealth()}
}

// Tracer returns the plane's span tracer (nil on a nil plane).
func (p *Plane) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// Rack returns the plane's rack index.
func (p *Plane) Rack() int {
	if p == nil {
		return 0
	}
	return p.rack
}

// Bind registers the plane's rollup gauges on reg under prefix.
func (p *Plane) Bind(reg *telemetry.Registry, prefix string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.health.Bind(reg, prefix)
}

// alert appends one alert under the held mutex.
func (p *Plane) alert(detector string, rack int, now float64, span uint64, detail string) {
	p.alerts = append(p.alerts, Alert{Detector: detector, Rack: rack, AtS: now, SpanID: span, Detail: detail})
}

// ObserveTick ingests one tick's controller signals: rollup pushes and the
// per-tick anomaly detectors. Allocation-free except when an alert fires.
func (p *Plane) ObserveTick(now float64, sig TickSignals) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	p.health.TripMargin.Push(sig.TripMargin)
	p.health.SoC.Push(sig.SoC)
	occ := 0.0
	if sig.Overloading {
		occ = 1
	}
	p.health.Occupancy.Push(occ)

	cfg := &p.cfg
	if p.det.sensor.update(sig.Confidence < cfg.ConfidenceFloor || sig.SensorGapW > cfg.SensorGapW, cfg.SustainTicks) {
		p.alert(DetectorSensor, p.rack, now, p.cause,
			fmt.Sprintf("guard confidence %.2f (floor %.2f), model gap %.0f W (ceil %.0f W)",
				sig.Confidence, cfg.ConfidenceFloor, sig.SensorGapW, cfg.SensorGapW))
	}
	if p.det.actuator.update(sig.LockedCores > 0 || sig.ActErrGHz > cfg.ActErrGHz, cfg.SustainTicks) {
		p.alert(DetectorActuator, p.rack, now, p.cause,
			fmt.Sprintf("%d locked cores, worst tracking error %.3f GHz", sig.LockedCores, sig.ActErrGHz))
	}

	// UPS gauge consistency: while discharging, the observed SoC cannot
	// sit above the previous reading minus the energy delivered (losses
	// only drain it faster). Accumulated violation means the gauge lies
	// high — the failure mode that silently discharges the battery flat.
	if p.det.haveSoC && sig.UPSDeliveredW > 0 && sig.UPSCapacityWh > 0 {
		possible := p.det.prevSoC - sig.UPSDeliveredW*sig.DtS/3600/sig.UPSCapacityWh
		if excess := sig.SoC - possible; excess > 0 {
			p.det.upsDrift += excess
		}
	}
	p.det.prevSoC, p.det.haveSoC = sig.SoC, true
	if p.det.ups.update(sig.UPSFailed || p.det.upsDrift > cfg.UPSGaugeDriftSoC, cfg.SustainTicks) {
		p.alert(DetectorUPS, p.rack, now, p.cause,
			fmt.Sprintf("watchdog=%v gauge drift %.4f SoC", sig.UPSFailed, p.det.upsDrift))
	}

	if p.det.tripBurn.update(sig.TripMargin < cfg.TripBurnFloor && p.health.TripMargin.Slope() < 0, cfg.SustainTicks) {
		p.alert(DetectorTripBurn, p.rack, now, p.cause,
			fmt.Sprintf("margin %.3f below %.3f and still burning", sig.TripMargin, cfg.TripBurnFloor))
	}
	if p.det.socDepl.update(sig.SoC < 0.95 && slopeProjectsBelow(p.health.SoC, sig.DtS, cfg.SoCHorizonS, cfg.SoCFloor), cfg.SustainTicks) {
		p.alert(DetectorSoCDepletion, p.rack, now, p.cause,
			fmt.Sprintf("SoC %.3f projects below %.2f within %.0f s", sig.SoC, cfg.SoCFloor, cfg.SoCHorizonS))
	}
	if p.det.deadline.update(sig.Urgency > cfg.UrgencyCeil, cfg.SustainTicks) {
		p.alert(DetectorDeadlineSlip, p.rack, now, p.cause,
			fmt.Sprintf("deadline urgency %.3f above %.2f", sig.Urgency, cfg.UrgencyCeil))
	}
}

// ObserveControl records one control period: a span causally linked to the
// budget's lease, the solver-effort rollup, and a gauge refresh.
func (p *Plane) ObserveControl(now float64, sweeps int, mode string) {
	if p == nil {
		return
	}
	p.tr.Event("control-period", p.rack, now, p.currentCause(), 0, float64(sweeps), mode)
	p.mu.Lock()
	p.health.Sweeps.Push(float64(sweeps))
	p.health.Publish()
	p.mu.Unlock()
}

// ObserveLink ingests the rack's per-tick link view (lease age rollup).
func (p *Plane) ObserveLink(ageS float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.health.LeaseAge.Push(ageS)
	p.mu.Unlock()
}

// currentCause returns the live lease anchor span.
func (p *Plane) currentCause() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cause
}

// --- rack-side lease lifecycle hooks (called by link.Client) ---

// LeaseAccepted records a grant acceptance causally linked to the grant
// span that crossed the transport, and makes it the rack's lease anchor.
func (p *Plane) LeaseAccepted(now float64, grantSpan, version uint64) {
	if p == nil {
		return
	}
	id := p.tr.Event("lease-accept", p.rack, now, grantSpan, version, 0, "")
	p.mu.Lock()
	p.cause = id
	p.mu.Unlock()
}

// LeaseStale records a rejected stale or duplicate grant.
func (p *Plane) LeaseStale(now float64, grantSpan, version uint64) {
	if p == nil {
		return
	}
	p.tr.Event("lease-stale", p.rack, now, grantSpan, version, 0, "")
}

// LeaseExpired records entry into the degraded fallback: it opens a
// degraded span under the expired lease's anchor, raises the rack-degraded
// alert, and feeds the churn detector.
func (p *Plane) LeaseExpired(now float64, version uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	span := p.tr.Begin("degraded", p.rack, now, p.cause, version)
	p.degSpan = span
	p.degraded = true
	p.alert(DetectorRackDegraded, p.rack, now, span, fmt.Sprintf("lease v%d expired", version))
	p.det.flaps.push(now)
	if p.det.flap.update(p.det.flaps.countSince(now-p.cfg.FlapWindowS) >= p.cfg.FlapCount, 1) {
		p.alert(DetectorLeaseFlap, p.rack, now, span,
			fmt.Sprintf("%d degraded entries within %.0f s", p.cfg.FlapCount, p.cfg.FlapWindowS))
	}
	p.mu.Unlock()
}

// LeaseResynced closes the open degraded span: the rack recovered a live
// lease and left the fallback.
func (p *Plane) LeaseResynced(now float64, version uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	span := p.degSpan
	p.degSpan = 0
	p.degraded = false
	p.mu.Unlock()
	p.tr.Event("lease-resync", p.rack, now, span, version, 0, "")
	p.tr.End(span, now)
}

// LeaseFailSafe records a fail-safe lease drop (controller restarted
// without link state).
func (p *Plane) LeaseFailSafe(now float64) {
	if p == nil {
		return
	}
	p.tr.Event("fail-safe", p.rack, now, p.currentCause(), 0, 0, "")
}

// HeartbeatSent records one heartbeat under the live lease anchor.
func (p *Plane) HeartbeatSent(now float64, version uint64) {
	if p == nil {
		return
	}
	p.tr.Event("heartbeat", p.rack, now, p.currentCause(), version, 0, "")
}

// --- coordinator-side hooks (called by link.Coordinator) ---

// GrantSpan records a lease put on the wire and returns the span ID the
// lease carries across the transport. Probes (grants without overload
// permission toward unreachable racks) carry their backoff as Attr.
func (p *Plane) GrantSpan(now float64, rack int, version uint64, probe bool, repack bool, backoffS float64) uint64 {
	if p == nil {
		return 0
	}
	kind, detail, attr := "lease-grant", "", 0.0
	if probe {
		kind, attr = "lease-probe", backoffS
	}
	if repack {
		detail = "repack"
	}
	return p.tr.Event(kind, rack, now, 0, version, attr, detail)
}

// PresumedDegraded records the coordinator writing a rack off, causally
// linked to the last grant it sent that rack.
func (p *Plane) PresumedDegraded(now float64, rack int, lastGrantSpan uint64) {
	if p == nil {
		return
	}
	p.tr.Event("presumed-degraded", rack, now, lastGrantSpan, 0, 0, "")
}

// CoordRestart records a coordinator crash-restart edge.
func (p *Plane) CoordRestart(now float64) {
	if p == nil {
		return
	}
	p.tr.Event("coord-restart", p.rack, now, 0, 0, 0, "")
}

// ObserveBeatAge runs the coordinator's silent-rack detector for one rack:
// ageS is the rack's heartbeat age (NaN when no beat was ever seen since
// restart — treated as silent once the threshold has passed since then).
func (p *Plane) ObserveBeatAge(now float64, rack int, ageS float64, lastGrantSpan uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.silent) <= rack {
		p.silent = append(p.silent, latch{})
	}
	if p.silent[rack].update(ageS > p.cfg.SilentAfterS, p.cfg.SustainTicks) {
		p.alert(DetectorRackSilent, rack, now, lastGrantSpan,
			fmt.Sprintf("no heartbeat for %.0f s", ageS))
	}
}

// --- output ---

// Alerts returns a copy of the alerts raised so far.
func (p *Plane) Alerts() []Alert {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Alert(nil), p.alerts...)
}

// Spans returns a copy of the plane's spans in emission order.
func (p *Plane) Spans() []telemetry.Span {
	return p.Tracer().Spans()
}

// Snapshot assembles the rack's live health document.
func (p *Plane) Snapshot() HealthSnapshot {
	if p == nil {
		return HealthSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.health.snapshot(p.rack)
	s.Degraded = p.degraded
	s.Alerts = len(p.alerts)
	if p.degSpan != 0 {
		s.OpenSpans = 1
	}
	return s
}

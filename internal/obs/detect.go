package obs

import "math"

// Alert is one structured anomaly event. Alerts are deterministic for a
// seeded run: detectors evaluate on simulation time over deterministic
// signals, in a fixed order.
type Alert struct {
	// Detector names the rule that fired (see the Detector* constants).
	Detector string `json:"detector"`
	// Rack is the rack the alert concerns (-1 for coordinator-side alerts
	// about the cluster rather than one rack — currently unused).
	Rack int `json:"rack"`
	// AtS is the simulation time the episode was detected.
	AtS float64 `json:"at_s"`
	// SpanID is the causal anchor, when one exists (e.g. the degraded span
	// a rack-degraded alert belongs to).
	SpanID uint64 `json:"span,omitempty"`
	// Detail is a human-oriented annotation of the triggering condition.
	Detail string `json:"detail,omitempty"`
}

// Detector names. Each detector fires once per episode: the condition must
// clear before the same detector can fire again for the same rack.
const (
	// DetectorTripBurn fires when the breaker's trip margin is burning
	// toward exhaustion faster than the overload schedule accounts for.
	DetectorTripBurn = "trip-margin-burn"
	// DetectorSoCDepletion fires when the SoC trajectory projects below
	// the reserve floor within the horizon.
	DetectorSoCDepletion = "soc-depletion"
	// DetectorSensor fires when the measurement guard's confidence
	// collapses (frozen, dropped, biased or stale power telemetry).
	DetectorSensor = "sensor-anomaly"
	// DetectorActuator fires on locked cores, offline servers, or a
	// sustained gap between commanded and applied frequencies (lag).
	DetectorActuator = "actuator-anomaly"
	// DetectorUPS fires on the UPS delivery watchdog, or when the SoC
	// gauge reads a physically impossible discharge trajectory.
	DetectorUPS = "ups-anomaly"
	// DetectorDeadlineSlip fires when some batch job's required frequency
	// exceeds the peak — a miss is already unavoidable.
	DetectorDeadlineSlip = "deadline-slip"
	// DetectorLeaseFlap fires when lease expiries churn: several
	// degraded-mode entries within the flap window.
	DetectorLeaseFlap = "lease-flap"
	// DetectorRackDegraded fires when a rack enters the degraded
	// standalone fallback (lease expiry or fail-safe drop).
	DetectorRackDegraded = "rack-degraded"
	// DetectorRackSilent fires on the coordinator when a rack's heartbeat
	// age exceeds the silence threshold.
	DetectorRackSilent = "rack-silent"
)

// DetectorConfig holds the anomaly thresholds. The defaults are tuned so
// the fault-free default scenario fires nothing while every E18 fault class
// and E19 partition case fires its detector (see experiments.AlertCoverage
// and DESIGN.md §13 for the tuning rationale).
type DetectorConfig struct {
	// SustainTicks is how many consecutive ticks a per-tick condition must
	// hold before an episode opens — one-tick transients never alert.
	SustainTicks int

	// ConfidenceFloor is the measurement-guard confidence below which the
	// power telemetry is considered anomalous.
	ConfidenceFloor float64

	// SensorGapW is the |guarded reading − model estimate| gap that marks
	// telemetry the guard cannot reject outright — delayed readings pass
	// freeze and slew checks but trail the plant by the delay.
	SensorGapW float64

	// ActErrGHz is the worst per-core |commanded − applied| frequency gap
	// that marks an actuator anomaly even when no core is formally locked
	// (lag, or a stuck core whose command has moved away from it).
	ActErrGHz float64

	// UPSGaugeDriftSoC is the accumulated positive gap between observed
	// and physically possible SoC during discharge that marks a lying
	// gauge (observed depleting slower than the energy delivered allows).
	UPSGaugeDriftSoC float64

	// TripBurnFloor is the trip margin below which a still-burning breaker
	// alerts: the planned overload schedule never burns this deep.
	TripBurnFloor float64

	// SoCFloor and SoCHorizonS: alert when the windowed SoC trend projects
	// below SoCFloor within SoCHorizonS.
	SoCFloor    float64
	SoCHorizonS float64

	// UrgencyCeil is the deadline-urgency level that marks a slipping
	// deadline (1 = some job needs exactly peak frequency until deadline).
	UrgencyCeil float64

	// FlapCount expiries within FlapWindowS mark lease churn.
	FlapCount   int
	FlapWindowS float64

	// SilentAfterS is the heartbeat age at which the coordinator declares
	// a rack silent (defaults to the link's beat timeout).
	SilentAfterS float64
}

// DefaultDetectorConfig returns the thresholds tuned on the default
// scenario (1 s ticks, 4 s control periods).
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		SustainTicks:     2,
		ConfidenceFloor:  0.7,
		SensorGapW:       600,
		ActErrGHz:        0.065,
		UPSGaugeDriftSoC: 0.001,
		TripBurnFloor:    0.03,
		SoCFloor:         0.05,
		SoCHorizonS:      120,
		UrgencyCeil:      1.02,
		FlapCount:        3,
		FlapWindowS:      90,
		SilentAfterS:     8,
	}
}

// latch is the per-detector episode state: the condition must hold for
// `sustain` consecutive evaluations to open an episode (returning true
// exactly once), and must clear before another episode can open.
type latch struct {
	count  int
	active bool
}

// update advances the latch one evaluation; it returns true exactly when a
// new episode opens.
func (l *latch) update(cond bool, sustain int) bool {
	if !cond {
		l.count = 0
		l.active = false
		return false
	}
	l.count++
	if l.active || l.count < sustain {
		return false
	}
	l.active = true
	return true
}

// flapRing remembers recent degraded-entry times for churn detection.
type flapRing struct {
	times [8]float64
	n     int
}

func (f *flapRing) push(t float64) {
	f.times[f.n%len(f.times)] = t
	f.n++
}

// countSince returns how many recorded entries fall in (since, +inf).
func (f *flapRing) countSince(since float64) int {
	m := f.n
	if m > len(f.times) {
		m = len(f.times)
	}
	var c int
	for i := 0; i < m; i++ {
		if f.times[i] > since {
			c++
		}
	}
	return c
}

// detectState is one rack's detector latches and accumulators.
type detectState struct {
	sensor   latch
	actuator latch
	ups      latch
	tripBurn latch
	socDepl  latch
	deadline latch
	flap     latch

	upsDrift float64 // accumulated impossible SoC (gauge reading high)
	prevSoC  float64
	haveSoC  bool

	flaps flapRing
}

// slopeProjectsBelow reports whether the window's trend, extrapolated
// horizonS ahead at the given sampling period, crosses below floor.
func slopeProjectsBelow(w *WindowStat, dtS, horizonS, floor float64) bool {
	slope := w.Slope()
	if math.IsNaN(slope) || slope >= 0 {
		return false
	}
	return w.Last()+slope/dtS*horizonS < floor
}

package control

import "math"

// Measurement-guard tuning of the hardened policy: three identical samples
// flag a freeze, the slew band tolerates the largest legitimate per-tick
// power moves with a wide margin, and confidence collapses within roughly
// one 4-second control period of telemetry loss.
const (
	// freezeTicks consecutive bit-identical readings flag the stream as
	// frozen. Real monitors carry noise, so exact repeats are a reliable
	// stuck-at signature.
	freezeTicks int = 3
	// guardSlewFrac bounds the plausible relative change between
	// consecutive accepted readings; guardSlewFloorW is the absolute floor
	// of that band so small rack power does not make the band degenerate.
	// A reading outside last-known-good ± max(guardSlewFrac·good,
	// guardSlewFloorW) is rejected as a spike or step fault.
	guardSlewFrac   float64 = 0.30
	guardSlewFloorW float64 = 250
	// guardDecayPerTick moves the held last-known-good value toward the
	// design model's power estimate while readings are invalid, so a long
	// outage degrades gracefully to model-based open-loop operation instead
	// of serving an ever-staler sample.
	guardDecayPerTick float64 = 0.25
	// guardConfidenceDecay multiplies the confidence on each invalid
	// reading; guardConfidenceRecover is added back per valid reading.
	// Confidence is clamped to [0, 1] and starts at 1.
	guardConfidenceDecay   float64 = 0.5
	guardConfidenceRecover float64 = 0.34
)

// MeasurementGuard validates each power reading and substitutes a
// last-known-good estimate when the monitor misbehaves. It also maintains a
// confidence score the supervisor and allocator act on: the allocator
// derates the overload budget proportionally, and the supervisor refuses to
// overload at all below its confidence floor.
//
// The guard exists because a sprinting controller that trusts a frozen or
// absent monitor during a scheduled breaker overload will ride the overload
// with no real feedback — the exact failure mode the safety supervisor must
// never allow.
type MeasurementGuard struct {
	detectFreeze bool

	held       float64 // last-known-good (or decayed) value served downstream
	haveHeld   bool
	prevRaw    float64 // previous raw reading, for freeze detection
	havePrev   bool
	identical  int // consecutive bit-identical raw readings
	confidence float64
}

// NewMeasurementGuard returns a guard. detectFreeze enables exact-repeat
// freeze detection; it must be off when the monitor is noise-free, where
// repeated readings are legitimate.
func NewMeasurementGuard(detectFreeze bool) *MeasurementGuard {
	return &MeasurementGuard{detectFreeze: detectFreeze, confidence: 1}
}

// Confidence returns the current measurement confidence in [0, 1].
func (g *MeasurementGuard) Confidence() float64 { return g.confidence }

// Step validates one reading. modelEstW is the design model's estimate of
// the same quantity, used only as the decay target while readings are
// invalid. It returns the value downstream consumers should use and whether
// the raw reading was accepted.
func (g *MeasurementGuard) Step(rawW, modelEstW float64) (float64, bool) {
	valid := !math.IsNaN(rawW) && !math.IsInf(rawW, 0) && rawW >= 0

	// Freeze detection: bit-identical repeats. Tracked on the raw stream
	// before any other check so a frozen-then-biased chain still counts.
	if valid && g.detectFreeze {
		if g.havePrev && rawW == g.prevRaw {
			g.identical++
			if g.identical >= freezeTicks {
				valid = false
			}
		} else {
			g.identical = 0
		}
	}
	if !math.IsNaN(rawW) {
		g.prevRaw = rawW
		g.havePrev = true
	}

	// Slew check: an implausible jump from the last accepted value is a
	// spike or a step fault (e.g. bias onset), not physics — the rack
	// cannot move that much power in one tick.
	if valid && g.haveHeld {
		band := math.Max(guardSlewFrac*math.Abs(g.held), guardSlewFloorW)
		if math.Abs(rawW-g.held) > band {
			valid = false
		}
	}

	if valid {
		g.held = rawW
		g.haveHeld = true
		g.confidence = math.Min(1, g.confidence+guardConfidenceRecover)
		return rawW, true
	}

	g.confidence *= guardConfidenceDecay
	if !g.haveHeld {
		// Never saw a good reading: the model estimate is all there is.
		g.held = modelEstW
		g.haveHeld = true
	} else if !math.IsNaN(modelEstW) && !math.IsInf(modelEstW, 0) {
		g.held += guardDecayPerTick * (modelEstW - g.held)
	}
	return g.held, false
}

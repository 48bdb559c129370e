package control

import (
	"errors"
	"math"
)

// MeasurementGuardConfig parameterizes the power-measurement plausibility
// filter that sits between the rack power monitor and every consumer of its
// readings. The guard exists because a sprinting controller that trusts a
// frozen or absent monitor during a scheduled breaker overload will ride
// the overload with no real feedback — the exact failure mode the safety
// supervisor must never allow.
type MeasurementGuardConfig struct {
	// FreezeTicks flags the stream as frozen after this many consecutive
	// bit-identical readings. Real monitors carry noise, so exact repeats
	// are a reliable stuck-at signature; set 0 to disable (mandatory when
	// the monitor is configured noise-free, where repeats are legitimate).
	FreezeTicks int
	// SlewFrac bounds the plausible relative change between consecutive
	// accepted readings; SlewFloorW is the absolute floor of that band so
	// small rack power does not make the band degenerate. A reading
	// outside last-known-good ± max(SlewFrac·good, SlewFloorW) is
	// rejected as a spike or step fault.
	SlewFrac   float64
	SlewFloorW float64
	// DecayPerTick moves the held last-known-good value toward the design
	// model's power estimate while readings are invalid, so a long outage
	// degrades gracefully to model-based open-loop operation instead of
	// serving an ever-staler sample.
	DecayPerTick float64
	// ConfidenceDecay multiplies the confidence on each invalid reading;
	// ConfidenceRecover is added back per valid reading. Confidence is
	// clamped to [0, 1] and starts at 1.
	ConfidenceDecay   float64
	ConfidenceRecover float64
}

// DefaultMeasurementGuardConfig returns the hardened-policy defaults: three
// identical samples flag a freeze, the slew band tolerates the largest
// legitimate per-tick power moves with a wide margin, and confidence
// collapses within roughly one 4-second control period of telemetry loss.
func DefaultMeasurementGuardConfig() MeasurementGuardConfig {
	return MeasurementGuardConfig{
		FreezeTicks:       3,
		SlewFrac:          0.30,
		SlewFloorW:        250,
		DecayPerTick:      0.25,
		ConfidenceDecay:   0.5,
		ConfidenceRecover: 0.34,
	}
}

// Validate reports structural errors in the configuration.
func (c MeasurementGuardConfig) Validate() error {
	switch {
	case c.FreezeTicks < 0:
		return errors.New("control: FreezeTicks must be non-negative")
	case c.SlewFrac <= 0 || c.SlewFloorW <= 0:
		return errors.New("control: slew band must be positive")
	case c.DecayPerTick < 0 || c.DecayPerTick > 1:
		return errors.New("control: DecayPerTick must be in [0, 1]")
	case c.ConfidenceDecay <= 0 || c.ConfidenceDecay >= 1:
		return errors.New("control: ConfidenceDecay must be in (0, 1)")
	case c.ConfidenceRecover <= 0:
		return errors.New("control: ConfidenceRecover must be positive")
	}
	return nil
}

// MeasurementGuard validates each power reading and substitutes a
// last-known-good estimate when the monitor misbehaves. It also maintains a
// confidence score the supervisor and allocator act on: the allocator
// derates the overload budget proportionally, and the supervisor refuses to
// overload at all below its confidence floor.
type MeasurementGuard struct {
	cfg MeasurementGuardConfig

	held       float64 // last-known-good (or decayed) value served downstream
	haveHeld   bool
	prevRaw    float64 // previous raw reading, for freeze detection
	havePrev   bool
	identical  int // consecutive bit-identical raw readings
	confidence float64
}

// NewMeasurementGuard returns a guard or an error for invalid config.
func NewMeasurementGuard(cfg MeasurementGuardConfig) (*MeasurementGuard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MeasurementGuard{cfg: cfg, confidence: 1}, nil
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
	if valid && g.cfg.FreezeTicks > 0 {
		if g.havePrev && rawW == g.prevRaw {
			g.identical++
			if g.identical >= g.cfg.FreezeTicks {
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
		band := math.Max(g.cfg.SlewFrac*math.Abs(g.held), g.cfg.SlewFloorW)
		if math.Abs(rawW-g.held) > band {
			valid = false
		}
	}

	if valid {
		g.held = rawW
		g.haveHeld = true
		g.confidence = math.Min(1, g.confidence+g.cfg.ConfidenceRecover)
		return rawW, true
	}

	g.confidence *= g.cfg.ConfidenceDecay
	if !g.haveHeld {
		// Never saw a good reading: the model estimate is all there is.
		g.held = modelEstW
		g.haveHeld = true
	} else if !math.IsNaN(modelEstW) && !math.IsInf(modelEstW, 0) {
		g.held += g.cfg.DecayPerTick * (modelEstW - g.held)
	}
	return g.held, false
}

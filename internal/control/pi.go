package control

import (
	"errors"
	"math"
)

// PIConfig parameterizes the single-loop PI power controller used as the
// ablation baseline for MPC (DESIGN.md A1). It closes one loop on total
// batch power and distributes the frequency move uniformly across cores —
// the structure classic server power capping uses [8].
type PIConfig struct {
	// Kp and Ki are the proportional and integral gains in GHz per watt
	// (per core, applied to the aggregate error).
	Kp, Ki float64
	// PeriodS is the control period in seconds.
	PeriodS float64
	// FMinGHz and FMaxGHz bound every core's frequency.
	FMinGHz, FMaxGHz float64
	// Cores is the number of controlled cores.
	Cores int
}

// DefaultPIConfig returns gains tuned for the default rack: the aggregate
// plant gain is Σk ≈ 64 cores × 9.6 W/GHz, so Kp ≈ 0.5/Σk gives a
// half-error step per period.
func DefaultPIConfig(cores int, sumKWPerGHz float64) PIConfig {
	return PIConfig{
		Kp:      0.5 / sumKWPerGHz,
		Ki:      0.15 / sumKWPerGHz,
		PeriodS: 4,
		FMinGHz: 0.4,
		FMaxGHz: 2.0,
		Cores:   cores,
	}
}

// Validate reports structural errors in the configuration.
func (c PIConfig) Validate() error {
	switch {
	case c.Kp <= 0 || c.Ki < 0:
		return errors.New("control: need Kp > 0 and Ki ≥ 0")
	case c.PeriodS <= 0:
		return errors.New("control: PeriodS must be positive")
	case c.FMinGHz <= 0 || c.FMaxGHz <= c.FMinGHz:
		return errors.New("control: need 0 < FMin < FMax")
	case c.Cores <= 0:
		return errors.New("control: Cores must be positive")
	}
	return nil
}

// PI is the stateful single-loop controller. Like MPC, it owns its output
// buffer: the slice returned by Step is reused by the next call.
type PI struct {
	cfg      PIConfig
	integral float64
	next     []float64
}

// NewPI returns a controller or an error for invalid configuration.
func NewPI(cfg PIConfig) (*PI, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PI{cfg: cfg, next: make([]float64, cfg.Cores)}, nil
}

// Step computes the next per-core frequencies from the aggregate batch
// power error (W in, GHz out). All cores receive the same move (the PI
// baseline has no notion of per-core urgency, which is one of the things
// MPC adds). The returned slice is reused by the next call; copy it to
// retain.
func (p *PI) Step(pfbW, pTargetW float64, freqs []float64) []float64 {
	err := pTargetW - pfbW
	p.integral += err * p.cfg.PeriodS
	move := p.cfg.Kp*err + p.cfg.Ki*p.integral

	next := p.next
	if len(next) != len(freqs) {
		next = make([]float64, len(freqs))
		p.next = next
	}
	var saturated bool
	for i, f := range freqs {
		nf := f + move
		if nf < p.cfg.FMinGHz {
			nf = p.cfg.FMinGHz
			saturated = true
		} else if nf > p.cfg.FMaxGHz {
			nf = p.cfg.FMaxGHz
			saturated = true
		}
		next[i] = nf
	}
	// Anti-windup: stop integrating while the actuators are pinned and
	// the error keeps pushing in the saturated direction.
	if saturated {
		p.integral -= err * p.cfg.PeriodS
		p.integral = math.Max(-1e6, math.Min(1e6, p.integral))
	}
	return next
}

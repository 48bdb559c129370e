package workload

import (
	"errors"
	"math"
	"math/rand"
)

// InteractiveConfig parameterizes the Wikipedia-like interactive load
// generator. Load is expressed as a demand fraction of the rack's
// interactive serving capacity at peak frequency: per-core utilization of
// the interactive cores equals the demand (clamped to 1) plus small
// per-server jitter.
type InteractiveConfig struct {
	// Seed makes the trace deterministic.
	Seed int64
	// Base is the pre-burst demand level (fraction of capacity).
	Base float64
	// DiurnalAmp and DiurnalPeriodS add the slow daily swing visible in
	// the Wikipedia trace (a 15-minute window sees a slice of it).
	DiurnalAmp     float64
	DiurnalPeriodS float64
	// BurstStartS/BurstEndS bound the flash-crowd window; BurstPeak is
	// the demand it ramps to. RampS is the ramp duration on each side.
	BurstStartS float64
	BurstEndS   float64
	BurstPeak   float64
	RampS       float64
	// NoiseStd is the standard deviation of the AR(1) noise; NoiseCorr
	// its one-step correlation (0 ≤ ρ < 1).
	NoiseStd  float64
	NoiseCorr float64
	// SpikeProb is the per-step probability of a short spike of extra
	// demand SpikeMag (request bursts in the trace).
	SpikeProb float64
	SpikeMag  float64
}

// DefaultInteractiveConfig returns a 15-minute flash-crowd scenario: demand
// ramps from ~42 % to ~68 % of interactive capacity, with spikes toward 90 %
// and persistent fluctuation, which is what makes the UPS controller's job
// nontrivial (paper Section IV-B: rack interactive load "can fluctuate
// dramatically and frequently").
func DefaultInteractiveConfig() InteractiveConfig {
	return InteractiveConfig{
		Seed:           1,
		Base:           0.42,
		DiurnalAmp:     0.04,
		DiurnalPeriodS: 3 * 3600,
		BurstStartS:    0,
		BurstEndS:      900,
		BurstPeak:      0.68,
		RampS:          60,
		NoiseStd:       0.06,
		NoiseCorr:      0.9,
		SpikeProb:      0.02,
		SpikeMag:       0.35,
	}
}

// Validate reports structural errors in the configuration.
func (c InteractiveConfig) Validate() error {
	switch {
	case c.Base < 0 || c.Base > 1:
		return errors.New("workload: Base must be in [0, 1]")
	case c.BurstPeak < 0 || c.BurstPeak > 1.5:
		return errors.New("workload: BurstPeak must be in [0, 1.5]")
	case c.BurstEndS < c.BurstStartS:
		return errors.New("workload: burst must end after it starts")
	case c.NoiseStd < 0 || c.NoiseCorr < 0 || c.NoiseCorr >= 1:
		return errors.New("workload: need NoiseStd ≥ 0 and 0 ≤ NoiseCorr < 1")
	case c.SpikeProb < 0 || c.SpikeProb > 1:
		return errors.New("workload: SpikeProb must be a probability")
	case c.RampS < 0 || c.DiurnalAmp < 0 || c.DiurnalPeriodS < 0 || c.SpikeMag < 0:
		return errors.New("workload: negative shape parameter")
	}
	return nil
}

// InteractiveTrace is a precomputed demand series with fixed time step.
type InteractiveTrace struct {
	DtS    float64
	Demand []float64 // demand fraction per step, in [0, 1.2]
}

// GenInteractive produces a deterministic demand trace of the given
// duration and step.
func GenInteractive(cfg InteractiveConfig, durationS, dtS float64) (*InteractiveTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if durationS <= 0 || dtS <= 0 {
		return nil, errors.New("workload: duration and dt must be positive")
	}
	n := int(math.Ceil(durationS / dtS))
	rng := rand.New(rand.NewSource(cfg.Seed))
	demand := make([]float64, n)
	noise := 0.0
	// Stationary-variance scaling keeps the marginal noise std at
	// NoiseStd regardless of the correlation.
	innov := cfg.NoiseStd * math.Sqrt(1-cfg.NoiseCorr*cfg.NoiseCorr)
	for i := 0; i < n; i++ {
		t := float64(i) * dtS
		d := cfg.Base
		if cfg.DiurnalAmp > 0 && cfg.DiurnalPeriodS > 0 {
			d += cfg.DiurnalAmp * math.Sin(2*math.Pi*t/cfg.DiurnalPeriodS)
		}
		d += cfg.burstShape(t) * (cfg.BurstPeak - cfg.Base)
		noise = cfg.NoiseCorr*noise + innov*rng.NormFloat64()
		d += noise
		if rng.Float64() < cfg.SpikeProb {
			d += cfg.SpikeMag * rng.Float64()
		}
		if d < 0 {
			d = 0
		}
		if d > 1.2 {
			d = 1.2 // bounded overload: queueing absorbs the rest
		}
		demand[i] = d
	}
	return &InteractiveTrace{DtS: dtS, Demand: demand}, nil
}

// burstShape returns the burst envelope in [0, 1] at time t.
func (c InteractiveConfig) burstShape(t float64) float64 {
	if t < c.BurstStartS || t > c.BurstEndS {
		return 0
	}
	if c.RampS <= 0 {
		return 1
	}
	up := (t - c.BurstStartS) / c.RampS
	down := (c.BurstEndS - t) / c.RampS
	return math.Min(1, math.Min(math.Max(up, 0), math.Max(down, 0)))
}

// At returns the demand at time t, clamping to the trace bounds.
func (tr *InteractiveTrace) At(t float64) float64 {
	i := int(t / tr.DtS)
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Demand) {
		i = len(tr.Demand) - 1
	}
	return tr.Demand[i]
}

// Stats summarizes a trace.
type Stats struct {
	Mean, Min, Max, Std float64
}

// Summary computes demand statistics over the whole trace.
func (tr *InteractiveTrace) Summary() Stats {
	if len(tr.Demand) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sum2 float64
	for _, d := range tr.Demand {
		sum += d
		sum2 += d * d
		s.Min = math.Min(s.Min, d)
		s.Max = math.Max(s.Max, d)
	}
	n := float64(len(tr.Demand))
	s.Mean = sum / n
	v := sum2/n - s.Mean*s.Mean
	if v > 0 {
		s.Std = math.Sqrt(v)
	}
	return s
}

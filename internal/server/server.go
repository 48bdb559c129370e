// Package server models one data-center server: its parameters and the two
// power models the paper distinguishes. The server's cores are a row of the
// rack's core table (package rack), which also keeps each core's frequency
// factor (FreqTerm); the models read that row.
//
// The *measurement* model (used by the simulation to play the role of the
// physical rack and its power monitor) follows Horvath & Skadron [29]: power
// depends on both frequency and utilization, with a super-linear frequency
// term and a fan/ambient disturbance. The *design* model used by SprintCon's
// controllers is the deliberately simpler linear form of paper Eq. (1)–(2):
// p_i = K_i·f_i + C_i. Evaluating the controller against the richer model is
// exactly how the paper demonstrates robustness to modeling error
// (Section VI-A).
package server

import (
	"errors"
	"math"

	"sprintcon/internal/cpu"
)

// Params describes a server model.
type Params struct {
	// IdleW is the power at zero utilization (paper: 150 W).
	IdleW float64
	// MaxW is the power fully loaded at peak frequency (paper: 300 W).
	MaxW float64
	// Cores is the number of CPU cores (paper: two 4-core CPUs → 8).
	Cores int
	// PStates is the DVFS table shared by all cores.
	PStates cpu.PStateTable
	// Alpha splits per-core dynamic power between a linear and a cubic
	// frequency term: dyn ∝ u·(α·f̂ + (1−α)·f̂³) with f̂ = f/f_max.
	// α < 1 makes the true model super-linear in f, so the controller's
	// linear design model carries a realistic error.
	Alpha float64
	// FanW scales the fan/ambient disturbance added to measured power.
	// Zero disables the disturbance.
	FanW float64
}

// DefaultParams returns the paper's evaluation server: 150 W idle, 300 W
// full, 8 cores at 0.4–2.0 GHz.
func DefaultParams() Params {
	return Params{
		IdleW:   150,
		MaxW:    300,
		Cores:   8,
		PStates: cpu.DefaultPStates(),
		Alpha:   0.4,
		FanW:    6,
	}
}

// Validate reports structural errors in the parameters.
func (p Params) Validate() error {
	switch {
	case p.IdleW <= 0:
		return errors.New("server: IdleW must be positive")
	case p.MaxW <= p.IdleW:
		return errors.New("server: MaxW must exceed IdleW")
	case p.Cores <= 0:
		return errors.New("server: Cores must be positive")
	case p.PStates.Len() == 0:
		return errors.New("server: empty P-state table")
	case p.Alpha < 0 || p.Alpha > 1:
		return errors.New("server: Alpha must be in [0, 1]")
	case p.FanW < 0:
		return errors.New("server: FanW must be non-negative")
	}
	return nil
}

// perCoreMaxW returns the dynamic power of one fully-utilized core at peak
// frequency.
func (p Params) perCoreMaxW() float64 {
	return (p.MaxW - p.IdleW) / float64(p.Cores)
}

// FreqTerm returns the frequency factor of the measurement model's
// per-core dynamic power at f GHz: α·f̂ + (1−α)·f̂³ with f̂ = f/f_max (f/f_max
// is exactly 1 at f_max, so the division is skipped there). The
// conversions round each product before the add, so no host fuses the
// pair into a multiply-add. The rack keeps this factor per core beside the
// core's frequency.
func (p *Params) FreqTerm(f float64) float64 {
	fmax := p.PStates.Max()
	fn := 1.0
	if f != fmax {
		fn = f / fmax
	}
	return float64(p.Alpha*fn) + float64((1-p.Alpha)*fn*fn*fn)
}

// coreDynamicW is the measurement model's per-core dynamic power, rounded
// before any caller's sum.
func (p Params) coreDynamicW(freqGHz, util float64) float64 {
	return float64(p.perCoreMaxW() * util * p.FreqTerm(freqGHz))
}

// Environment carries the rack-level disturbance inputs the controllers do
// not model (paper Section V-A: fan power depends on the temperature set
// point and ambient air temperature).
type Environment struct {
	// AmbientC is the inlet air temperature in °C (nominal 25).
	AmbientC float64
}

// fanW is the unmodeled disturbance: grows super-linearly with the dynamic
// load, as loadFrac^1.5, and with ambient temperature above the 25 °C set
// point. loadFrac^1.5 is computed as loadFrac·√loadFrac, from exactly
// rounded operations only, and the conversions keep the products out of
// fused multiply-adds, so every host computes the same bits.
func (p *Params) fanW(dynW float64, env Environment) float64 {
	if p.FanW == 0 {
		return 0
	}
	loadFrac := dynW / (p.MaxW - p.IdleW)
	tempFactor := 1 + float64(0.04*(env.AmbientC-25))
	if tempFactor < 0 {
		tempFactor = 0
	}
	return float64(p.FanW * (loadFrac * math.Sqrt(loadFrac)) * tempFactor)
}

// Power returns the measured power (measurement model + fan) of one server
// whose core i has frequency factor terms[i] (FreqTerm of its frequency)
// and utilization utils[i]: a row of the rack's term and core tables. Each
// core adds perCoreMax·u·term, rounded before the add, so the result is
// bit-identical to summing coreDynamicW per core. Power, PowerOfClass and
// fanW take a pointer: Params is too large for the compiler to keep in
// registers, and copying it for every server of every tick costs more than
// the row's arithmetic.
func (p *Params) Power(terms, utils []float64, env Environment) float64 {
	utils = utils[:len(terms)]
	pcm := p.perCoreMaxW()
	var dyn float64
	for i, term := range terms {
		dyn += float64(pcm * utils[i] * term)
	}
	return p.IdleW + dyn + p.fanW(dyn, env)
}

// PowerOfClass returns the ground-truth power of one server (core i at
// freqs[i] GHz, utilization utils[i], class classes[i]) attributable to
// cores of class cl, following the paper's Eq. (1) attribution: each core
// carries its dynamic power plus an equal share c_i·m_i/M_i of the
// frequency-independent power (the fan disturbance is attributed
// proportionally to dynamic power).
func (p *Params) PowerOfClass(freqs, utils []float64, classes []cpu.Class, cl cpu.Class, env Environment) float64 {
	var dynClass, dynTotal float64
	var nClass int
	for i, f := range freqs {
		d := p.coreDynamicW(f, utils[i])
		dynTotal += d
		if classes[i] == cl {
			dynClass += d
			nClass++
		}
	}
	idleShare := p.IdleW * float64(nClass) / float64(len(freqs))
	fan := p.fanW(dynTotal, env)
	fanShare := 0.0
	if dynTotal > 0 {
		fanShare = fan * dynClass / dynTotal
	}
	return idleShare + dynClass + fanShare
}

// --- Design (controller) model --------------------------------------------

// LinearCoeffs holds the per-core constants of the controllers' linear
// design model (paper Eq. 1): p_core ≈ KWPerGHz·f + CIdleShareW.
type LinearCoeffs struct {
	KWPerGHz    float64 // slope of power versus core frequency
	CIdleShareW float64 // frequency-independent share per core
}

// DesignCoeffs linearizes the measurement model across the frequency range
// at the given reference utilization (batch cores run nearly saturated, so
// the paper's linearization at constant utilization is a good fit there).
func (p Params) DesignCoeffs(refUtil float64) LinearCoeffs {
	fmin, fmax := p.PStates.Min(), p.PStates.Max()
	dLo := p.coreDynamicW(fmin, refUtil)
	dHi := p.coreDynamicW(fmax, refUtil)
	k := (dHi - dLo) / (fmax - fmin)
	c := p.IdleW/float64(p.Cores) + dLo - k*fmin
	return LinearCoeffs{KWPerGHz: k, CIdleShareW: c}
}

// InteractiveCoeffs returns the per-core constants of the paper's Eq. (5)
// interactive power model p = K'·u + C', valid because interactive cores run
// at peak frequency during sprinting: at f = f_max the measurement model's
// dynamic power is exactly perCoreMax·u.
func (p Params) InteractiveCoeffs() LinearCoeffs {
	return LinearCoeffs{
		KWPerGHz:    p.perCoreMaxW(), // here: watts per unit utilization
		CIdleShareW: p.IdleW / float64(p.Cores),
	}
}

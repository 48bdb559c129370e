// Package server models one data-center server: a multi-core CPU with
// per-core DVFS plus the two power models the paper distinguishes.
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
	"fmt"
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

// coreDynamicW is the measurement model's per-core dynamic power.
func (p Params) coreDynamicW(freqGHz, util float64) float64 {
	fn := freqGHz / p.PStates.Max()
	return p.perCoreMaxW() * util * (p.Alpha*fn + (1-p.Alpha)*fn*fn*fn)
}

// Environment carries the rack-level disturbance inputs the controllers do
// not model (paper Section V-A: fan power depends on the temperature set
// point and ambient air temperature).
type Environment struct {
	// AmbientC is the inlet air temperature in °C (nominal 25).
	AmbientC float64
}

// Server is one server's mutable state.
type Server struct {
	id  int
	p   Params
	cpu *cpu.CPU
}

// New returns a server with all cores idle at the lowest P-state.
func New(id int, p Params) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c, err := cpu.New(p.Cores, p.PStates)
	if err != nil {
		return nil, err
	}
	return &Server{id: id, p: p, cpu: c}, nil
}

// NewOn returns a server whose cores are c, which must have p.Cores cores:
// a rack passes windows onto its own core table.
func NewOn(id int, p Params, c *cpu.CPU) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c.NumCores() != p.Cores {
		return nil, fmt.Errorf("server: CPU has %d cores, params %d", c.NumCores(), p.Cores)
	}
	return &Server{id: id, p: p, cpu: c}, nil
}

// ID returns the server's identifier.
func (s *Server) ID() int { return s.id }

// CPU exposes the server's cores for class/frequency/utilization updates.
func (s *Server) CPU() *cpu.CPU { return s.cpu }

// fanW is the unmodeled disturbance: grows super-linearly with the dynamic
// load, as loadFrac^1.5, and with ambient temperature above the 25 °C set
// point. loadFrac^1.5 is computed as loadFrac·√loadFrac, from exactly
// rounded operations only, and the conversions keep the products out of
// fused multiply-adds, so every host computes the same bits.
func (s *Server) fanW(dynW float64, env Environment) float64 {
	if s.p.FanW == 0 {
		return 0
	}
	loadFrac := dynW / (s.p.MaxW - s.p.IdleW)
	tempFactor := 1 + float64(0.04*(env.AmbientC-25))
	if tempFactor < 0 {
		tempFactor = 0
	}
	return float64(s.p.FanW * (loadFrac * math.Sqrt(loadFrac)) * tempFactor)
}

// Power returns the measured server power (measurement model + fan). The
// summation runs fused over the CPU's struct-of-arrays frequency and
// utilization slices with hoisted constants; every per-core operation is
// performed in the same order as the scalar model, so the result is
// bit-identical to summing coreDynamicW per core.
func (s *Server) Power(env Environment) float64 {
	freqs, utils := s.cpu.Freqs(), s.cpu.Utils()
	pcm := s.p.perCoreMaxW()
	fmax := s.p.PStates.Max()
	a := s.p.Alpha
	b := 1 - s.p.Alpha
	var dyn float64
	for i, f := range freqs {
		fn := 1.0 // f/fmax is exactly 1 at fmax: skip the division
		if f != fmax {
			fn = f / fmax
		}
		dyn += pcm * utils[i] * (a*fn + b*fn*fn*fn)
	}
	return s.p.IdleW + dyn + s.fanW(dyn, env)
}

// PowerOfClass returns this server's ground-truth power attributable to
// cores of class cl, following the paper's Eq. (1) attribution: each core
// carries its dynamic power plus an equal share c_i·m_i/M_i of the
// frequency-independent power (the fan disturbance is attributed
// proportionally to dynamic power).
func (s *Server) PowerOfClass(cl cpu.Class, env Environment) float64 {
	var dynClass, dynTotal float64
	var nClass int
	for i := 0; i < s.cpu.NumCores(); i++ {
		c := s.cpu.Core(i)
		d := s.p.coreDynamicW(c.Freq, c.Util)
		dynTotal += d
		if c.Class == cl {
			dynClass += d
			nClass++
		}
	}
	idleShare := s.p.IdleW * float64(nClass) / float64(s.cpu.NumCores())
	fan := s.fanW(dynTotal, env)
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

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("server%02d(%d cores)", s.id, s.cpu.NumCores())
}

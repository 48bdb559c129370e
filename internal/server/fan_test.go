package server

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"sprintcon/internal/cpu"
)

// fanWRef is the fan model written out: FanW·loadFrac^1.5·tempFactor.
func fanWRef(p Params, dynW float64, env Environment) float64 {
	if p.FanW == 0 {
		return 0
	}
	loadFrac := dynW / (p.MaxW - p.IdleW)
	tempFactor := math.Max(0, 1+0.04*(env.AmbientC-25))
	return p.FanW * (loadFrac * math.Sqrt(loadFrac)) * tempFactor
}

// powerRef is Power over raw frequencies, as it was before the rack kept a
// frequency factor per core: the model written out per core from f/f_max,
// plus fanWRef. Each product is rounded before its add, as Power's are.
func powerRef(s *row, env Environment) float64 {
	a, fmax := s.p.Alpha, s.p.PStates.Max()
	var dyn float64
	for i, f := range s.f {
		fn := f / fmax
		term := float64(a*fn) + float64((1-a)*fn*fn*fn)
		dyn += float64(s.p.perCoreMaxW() * s.u[i] * term)
	}
	return s.p.IdleW + dyn + fanWRef(s.p, dyn, env)
}

// x·√x, the fan term's load factor, is x^1.5 to within two units in the
// last place of a 256-bit reference (√ and the product each round once),
// from the extremes of the float64 range to zero and negative zero and on
// the loads a rack sees. (math.Pow(x, 1.5), its earlier form, is off by up
// to 4 units on those loads.)
func TestFanLoadFactorAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := []float64{0, math.Copysign(0, -1), 1, 0.25, 4, math.SmallestNonzeroFloat64, 0x1p-1000, 0x1p600, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1074))
	}
	for i := 0; i < 20000; i++ {
		xs = append(xs, 1.2*rng.Float64())
	}
	for _, x := range xs {
		b := new(big.Float).SetPrec(256).SetFloat64(x)
		b.Mul(b, new(big.Float).SetPrec(256).Sqrt(b))
		want, _ := b.Float64()
		got := x * math.Sqrt(x)
		if ulp := math.Nextafter(want, math.Inf(1)) - want; got != want && !(math.Abs(got-want) <= 2*ulp) {
			t.Fatalf("x = %v: x·√x = %v, 256-bit x^1.5 = %v", x, got, want)
		}
	}
}

// Power and PowerOfClass must match the model written out per core, bit for
// bit, over generated core states and ambients: plateaus that repeat a
// state, ambients below freezing, at −0 and above the set point, and a
// server with the fan disturbance off.
func TestPowerMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, fanW := range []float64{6, 0} {
		p := DefaultParams()
		p.FanW = fanW
		s := newRow(p)
		for i := range s.cl {
			s.cl[i] = cpu.Class(i % 3)
		}
		e := Environment{AmbientC: 25}
		for step := 0; step < 5000; step++ {
			switch r := rng.Float64(); {
			case r < 0.5: // plateau: nothing changes
			case r < 0.8:
				i := rng.Intn(p.Cores)
				s.set(i, s.cl[i], 0.4+1.6*rng.Float64(), 1.2*rng.Float64())
			case r < 0.9:
				e.AmbientC = []float64{25, 30, math.Copysign(0, -1), 0, -5, 40}[rng.Intn(6)]
			default:
				e.AmbientC = 15 + 25*rng.Float64()
			}
			if got, want := s.power(e), powerRef(s, e); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FanW=%v step %d: Power = %v, model %v", fanW, step, got, want)
			}
			cl := s.cl[rng.Intn(p.Cores)]
			var dynClass, dynTotal, nClass float64
			for i := 0; i < p.Cores; i++ {
				d := p.coreDynamicW(s.f[i], s.u[i])
				dynTotal += d
				if s.cl[i] == cl {
					dynClass, nClass = dynClass+d, nClass+1
				}
			}
			want := p.IdleW*nClass/float64(p.Cores) + dynClass
			if dynTotal > 0 {
				want += fanWRef(p, dynTotal, e) * dynClass / dynTotal
			}
			if got := s.powerOfClass(cl, e); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FanW=%v step %d: PowerOfClass = %v, model %v", fanW, step, got, want)
			}
		}
	}
}

package server

import (
	"math"
	"math/rand"
	"testing"

	"sprintcon/internal/cpu"
)

// fanWRef is fanW without the memo.
func fanWRef(s *Server, dynW float64, env Environment) float64 {
	if s.p.FanW == 0 {
		return 0
	}
	loadFrac := dynW / (s.p.MaxW - s.p.IdleW)
	tempFactor := 1 + 0.04*(env.AmbientC-25)
	if tempFactor < 0 {
		tempFactor = 0
	}
	return s.p.FanW * math.Pow(loadFrac, 1.5) * tempFactor
}

// powerRef is Power with the unmemoized fan model.
func powerRef(s *Server, env Environment) float64 {
	freqs, utils := s.cpu.Freqs(), s.cpu.Utils()
	pcm := s.p.perCoreMaxW()
	fmax := s.p.PStates.Max()
	a := s.p.Alpha
	b := 1 - s.p.Alpha
	var dyn float64
	for i, f := range freqs {
		fn := f / fmax
		dyn += pcm * utils[i] * (a*fn + b*fn*fn*fn)
	}
	return s.p.IdleW + dyn + fanWRef(s, dyn, env)
}

// Power and PowerOfClass must match the unmemoized model bit for bit over
// generated core states and ambients: plateaus that repeat the same state
// (memo hits), a changed ambient at the same load (which must miss),
// alternating Power and PowerOfClass calls (whose dynamic sums differ in
// their last bits), and a server with the fan disturbance off.
func TestPowerMatchesUnmemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, fanW := range []float64{6, 0} {
		p := DefaultParams()
		p.FanW = fanW
		s, err := New(0, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.Cores; i++ {
			s.CPU().SetClass(i, cpu.Class(i%3))
		}
		e := Environment{AmbientC: 25}
		for step := 0; step < 5000; step++ {
			switch r := rng.Float64(); {
			case r < 0.5: // plateau: nothing changes
			case r < 0.8:
				i := rng.Intn(p.Cores)
				s.CPU().SetFreq(i, 0.4+1.6*rng.Float64())
				s.CPU().SetUtil(i, 1.2*rng.Float64())
			case r < 0.9:
				e.AmbientC = []float64{25, 30, math.Copysign(0, -1), 0, -5, 40}[rng.Intn(6)]
			default:
				e.AmbientC = 15 + 25*rng.Float64()
			}
			if got, want := s.Power(e), powerRef(s, e); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FanW=%v step %d: Power = %v, unmemoized %v", fanW, step, got, want)
			}
			if rng.Intn(4) == 0 {
				cl := s.CPU().Core(rng.Intn(p.Cores)).Class
				got := s.PowerOfClass(cl, e)
				fresh := *s
				fresh.fan = fanMemo{}
				if want := fresh.PowerOfClass(cl, e); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("FanW=%v step %d: PowerOfClass = %v, unmemoized %v", fanW, step, got, want)
				}
			}
		}
	}
}

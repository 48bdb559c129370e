package ups

import (
	"fmt"
	"math"
)

// State is the serializable snapshot of a UPS battery string's mutable
// state: the remaining energy plus the cycle-accounting fields (DoD floor
// and cumulative discharge) that the paper's battery-lifetime analysis
// depends on.
type State struct {
	EnergyWh     float64
	MinEnergyWh  float64
	DischargedWh float64
}

// ExportState captures the battery's mutable state.
func (u *UPS) ExportState() State {
	return State{
		EnergyWh:     u.energyWh,
		MinEnergyWh:  u.minEnergyWh,
		DischargedWh: u.dischargedWh,
	}
}

// RestoreState overwrites the battery's mutable state from a snapshot. A
// corrupt snapshot must never inflate the state of charge past capacity or
// install negative energies, so every field is range-checked against the
// live configuration.
func (u *UPS) RestoreState(st State) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"EnergyWh", st.EnergyWh},
		{"MinEnergyWh", st.MinEnergyWh},
		{"DischargedWh", st.DischargedWh},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("ups: snapshot %s is %g; must be finite", f.name, f.v)
		}
	}
	switch {
	case st.EnergyWh < 0 || st.EnergyWh > u.cfg.CapacityWh:
		return fmt.Errorf("ups: snapshot energy %g Wh outside [0, %g]", st.EnergyWh, u.cfg.CapacityWh)
	case st.MinEnergyWh < 0 || st.MinEnergyWh > u.cfg.CapacityWh:
		return fmt.Errorf("ups: snapshot min energy %g Wh outside [0, %g]", st.MinEnergyWh, u.cfg.CapacityWh)
	case st.MinEnergyWh > st.EnergyWh+1e-9:
		return fmt.Errorf("ups: snapshot min energy %g Wh exceeds energy %g Wh", st.MinEnergyWh, st.EnergyWh)
	case st.DischargedWh < 0:
		return fmt.Errorf("ups: snapshot discharged energy %g Wh is negative", st.DischargedWh)
	}
	u.energyWh = st.EnergyWh
	u.minEnergyWh = st.MinEnergyWh
	u.dischargedWh = st.DischargedWh
	return nil
}

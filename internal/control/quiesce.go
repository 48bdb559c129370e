package control

import "sprintcon/internal/engine"

// This file holds the controllers' quiescent-state hooks for the
// discrete-event simulation engine (DESIGN.md §15). Each method appends the
// controller's complete mutable state — every field a Step can read or
// write on the next control period — to an engine.State, so that two
// consecutive control periods comparing equal word for word certifies an
// exact floating-point fixed point of that controller. Preallocated scratch
// (solver workspaces, output buffers) is excluded only where it is provably
// a pure function of the appended inputs, rebuilt from scratch on every
// solve.

// QuiescentState appends the MPC's mutable cross-period state: the last
// solve diagnostics. The per-solve d/g/lo/hi vectors and the QP workspace
// are rebuilt in full on every Step from its inputs, so they carry no
// state across periods.
func (m *MPC) QuiescentState(st *engine.State) {
	st.Int(m.last.Sweeps)
	st.Bool(m.last.Converged)
}

// QuiescentState appends the PI controller's integrator. A drifting
// integral keeps the state moving, so PI-driven runs simply never open
// quiescent spans — the honest outcome for a controller without a
// fixed-point structure.
func (p *PI) QuiescentState(st *engine.State) {
	st.F64(p.integral)
}

// QuiescentState appends the UPS controller's feedback trim.
func (u *UPSController) QuiescentState(st *engine.State) {
	st.F64(u.trim)
}

// QuiescentState appends the measurement guard's filter state.
func (g *MeasurementGuard) QuiescentState(st *engine.State) {
	st.F64(g.held)
	st.Bool(g.haveHeld)
	st.F64(g.prevRaw)
	st.Bool(g.havePrev)
	st.Int(g.identical)
	st.F64(g.confidence)
}

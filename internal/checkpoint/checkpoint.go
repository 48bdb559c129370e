// Package checkpoint implements crash-safe snapshots of the full control
// state (DESIGN.md §11): the breaker thermal accumulator, UPS state of
// charge, per-job batch progress, power-model parameters, measurement-guard
// history, hardening flags and noise-stream positions. The
// simulation engine serializes a snapshot every control period; after a
// controller crash the controller restores from the latest one and
// continues — bit-identically when the snapshot is fresh, through the
// fail-safe ladder when it is missing, stale or corrupt.
//
// Snapshots are versioned, checksummed and written atomically
// (temp + rename), so a crash during the write of checkpoint N leaves the
// intact checkpoint N−1 in place rather than a torn file.
package checkpoint

import (
	"fmt"
	"math"

	"sprintcon/internal/alloc"
	"sprintcon/internal/breaker"
	"sprintcon/internal/control"
	"sprintcon/internal/faults"
	"sprintcon/internal/link"
	"sprintcon/internal/rack"
	"sprintcon/internal/ups"
)

// Version is the snapshot schema version. Decoders reject snapshots from a
// different version: schema drift across binaries must fail loudly into the
// fail-safe path, not restore garbage. Version 2 dropped the MPC warm-start
// cache: a version 1 snapshot resumed without it reproduces neither
// binary's uninterrupted decision stream, so it is refused.
const Version = 2

// Snapshot is one complete capture of a run's mutable state at a tick
// boundary (taken after the tick completed, so SimTimeS is the time of the
// next tick to execute).
type Snapshot struct {
	Version  int
	SimTimeS float64
	// Step is the index of the next engine step to execute.
	Step int64
	// PolicyName guards against restoring one policy's state into another.
	PolicyName string
	// ScenarioSum fingerprints the scenario configuration (FNV-64a over
	// its canonical JSON); restores reject snapshots from a different
	// scenario, whose plant the state would not describe.
	ScenarioSum uint64
	// HasController marks snapshots carrying controller state (policies
	// that do not support checkpointing still get plant snapshots, which
	// -restore can resume with a fresh policy start).
	HasController bool
	Controller    ControllerState
	Plant         PlantState
}

// ControllerState is the SprintCon controller's complete mutable state.
type ControllerState struct {
	// CapturedAtS is the simulation time the state was exported; the
	// restore path compares it against the restore time to detect stale
	// snapshots (clock skew).
	CapturedAtS float64

	// Supervisor state.
	Mode           int
	EverNearTrip   bool
	EverDepleted   bool
	FailSafeUntilS float64

	// Control-period state.
	LastCtlS    float64
	CurPCbW     float64 // may be +Inf (uncontrolled short bursts)
	CurPBatchW  float64
	CmdFreqsGHz []float64

	// Power model and per-loop controller state.
	KModel      float64
	PrevPfbW    float64
	LastMoveSum float64
	HavePrev    bool
	PIIntegral  float64
	UPSTrimW    float64
	HasRLS      bool
	RLS         control.RLSState
	Alloc       alloc.State

	// Hardening state (absent for the unhardened ablation).
	HasHarden bool
	Harden    HardenState

	// Invariant-supervisor breach counters, carried across restarts so a
	// resumed run reports cumulative totals.
	InvCBMargin   int
	InvSoCFloor   int
	InvFreqBounds int
	InvDeadline   int

	// Control-link client state (linked cluster runs only). A restore
	// without it — e.g. a snapshot taken before the rack was linked —
	// drops the lease and re-enters degraded mode until the coordinator
	// re-grants, the safe direction.
	HasLink bool
	Link    link.ClientState
}

// HardenState is the hardened controller's watchdog state.
type HardenState struct {
	Guard       control.GuardState
	Degraded    bool
	UPSLastReqW float64
	UPSFailTick int
	UPSFailed   bool
	LastApplied []float64
	StuckCount  []int
	Locked      []bool
	ProbeLeft   []int
}

// PlantState is the physical plant and engine-accounting state, used by
// full-process resume (-restore) and replay. A mid-run controller restart
// restores only the Controller part — the plant kept running while the
// controller was down.
type PlantState struct {
	Breaker     breaker.State
	UPS         ups.State
	Rack        rack.State
	HasInjector bool
	Injector    faults.InjectorState
	Engine      EngineState
}

// EngineState is the simulation engine's accumulator state at the snapshot
// boundary.
type EngineState struct {
	Outage          bool
	OutageS         float64
	CBTrips         int
	ControlledTicks int
	OverTicks       int
	TrackErrSum     float64
	// EventSeq is the number of events logged so far; a resumed run's log
	// continues sequence numbers from here so merged logs stay ordered.
	EventSeq int
	// Snap is the measurement snapshot the next tick's policy will see.
	Snap SnapState
}

// SnapState mirrors the engine's per-tick measurement snapshot (the sim
// package imports this one, so the type is duplicated here).
type SnapState struct {
	NowS              float64
	DtS               float64
	MeasuredTotalW    float64
	CBPowerW          float64
	UPSPowerW         float64
	CBThermalFraction float64
	CBNearTrip        bool
	CBTripped         bool
	UPSSoC            float64
	UPSDepleted       bool
	Outage            bool
}

// Validate reports structural errors in a decoded snapshot. It checks the
// fields the checkpoint layer owns; each subsystem's RestoreState performs
// the deep range checks against its live configuration.
func (s *Snapshot) Validate() error {
	if s == nil {
		return fmt.Errorf("checkpoint: nil snapshot")
	}
	if s.Version != Version {
		return fmt.Errorf("checkpoint: snapshot version %d, this binary speaks %d", s.Version, Version)
	}
	if math.IsNaN(s.SimTimeS) || math.IsInf(s.SimTimeS, 0) || s.SimTimeS < 0 {
		return fmt.Errorf("checkpoint: snapshot time %g must be finite and non-negative", s.SimTimeS)
	}
	if s.Step < 0 {
		return fmt.Errorf("checkpoint: snapshot step %d is negative", s.Step)
	}
	e := &s.Plant.Engine
	switch {
	case e.OutageS < 0 || math.IsNaN(e.OutageS):
		return fmt.Errorf("checkpoint: snapshot outage accumulator %g invalid", e.OutageS)
	case e.CBTrips < 0 || e.ControlledTicks < 0 || e.OverTicks < 0 || e.EventSeq < 0:
		return fmt.Errorf("checkpoint: snapshot engine counters negative")
	case e.OverTicks > e.ControlledTicks:
		return fmt.Errorf("checkpoint: snapshot over-budget ticks %d exceed controlled ticks %d",
			e.OverTicks, e.ControlledTicks)
	case math.IsNaN(e.TrackErrSum) || e.TrackErrSum < 0:
		return fmt.Errorf("checkpoint: snapshot tracking-error accumulator %g invalid", e.TrackErrSum)
	}
	return nil
}

// Package link is the coordinator↔rack control link of a linked row run
// (hier.RunLinked, DESIGN.md §12): an explicit message-passing channel
// carrying power-budget grants from the row coordinator to each rack's
// SprintCon instance and telemetry heartbeats back. Where hier.RunSweep
// hands each rack a static phase offset at construction time — an
// in-memory call that can never be lost — the link models a real network,
// with deterministic seeded fault hooks for message loss, delay (reordering),
// duplication, rack↔coordinator partition and coordinator crash/restart.
//
// Budgets travel as *leases*: a grant names a CB power cap, overload and UPS
// permissions and an overload phase slot, and is valid for a bounded TTL
// under a monotonically increasing per-rack version. The rack-side Client
// enforces the lease discipline — stale and duplicate grants are rejected,
// and on expiry the rack falls back within one control period to its
// last-known safe standalone budget (rated breaker power, overloads
// suspended, UPS discharge disabled) until a fresh grant re-syncs it. The
// coordinator side tracks per-rack link health from heartbeat age, re-grants
// with exponential backoff toward unreachable racks, and redistributes
// overload slots away from racks it must presume degraded.
//
// Everything here is pure state-machine logic over the simulation clock: two
// runs with identical configurations, schedules and seeds are bit-identical,
// serial or parallel.
package link

import (
	"errors"
	"fmt"
	"math"
)

// Lease is one budget grant from the coordinator to a rack. It is valid
// from IssuedAtS for TTLS seconds; Version increases monotonically per rack
// so clients can reject stale or duplicated grants after reordering.
type Lease struct {
	RackID  int
	Version uint64
	// IssuedAtS and TTLS bound the lease's validity window.
	IssuedAtS float64
	TTLS      float64
	// PCbCapW caps the rack's CB power target (0 = no cap beyond the
	// rack's own schedule).
	PCbCapW float64
	// AllowOverload and AllowUPS gate breaker overloads and battery
	// discharge; both false is the degraded standalone budget.
	AllowOverload bool
	AllowUPS      bool
	// PhaseOffsetS is the overload slot the coordinator assigned (the
	// allocator's schedule phase offset).
	PhaseOffsetS float64
	// SpanID is the coordinator-side grant span's ID, carried across the
	// transport so the rack's lifecycle spans (accept, degraded, control
	// periods) causally link back to the grant that authorized them. Zero
	// when the coordinator runs without an observability plane; purely
	// observational — no control decision reads it.
	SpanID uint64
}

// ExpiresAtS returns the simulation time the lease stops being valid.
func (l Lease) ExpiresAtS() float64 { return l.IssuedAtS + l.TTLS }

// Heartbeat is one rack→coordinator telemetry beat. LeaseVersion echoes the
// rack's current lease so a restarted coordinator can recover its version
// counters from live traffic instead of persistent state.
type Heartbeat struct {
	RackID       int
	SentAtS      float64
	MeasuredW    float64
	SoC          float64
	Overloading  bool
	Mode         int
	LeaseVersion uint64
	Degraded     bool
}

// Config holds the link protocol parameters shared by the Client and the
// Coordinator.
type Config struct {
	// TTLS is the lease validity window. It must cover at least one
	// refresh period plus transit, or healthy racks would flap degraded.
	TTLS float64
	// RefreshS is the coordinator's grant-refresh cadence per rack (the
	// link control period).
	RefreshS float64
	// BeatPeriodS is the rack heartbeat cadence.
	BeatPeriodS float64
	// BeatTimeoutS marks a rack unreachable when its last heartbeat is
	// older than this.
	BeatTimeoutS float64
	// RetryBackoffS and MaxBackoffS bound the coordinator's exponential
	// re-grant backoff toward unreachable racks.
	RetryBackoffS float64
	MaxBackoffS   float64
	// OverloadS and CycleS describe the racks' overload schedule (window
	// length and full overload+recovery period); the client's re-phase
	// guard and the coordinator's slot packing both need them.
	OverloadS float64
	CycleS    float64
	// TrustLastGrant is the naive baseline: the client ignores lease
	// expiry and keeps acting on the last grant it ever accepted. It
	// exists to demonstrate why the TTL matters (experiment E19).
	TrustLastGrant bool
}

// NumSlots returns how many non-overlapping overload windows fit in one
// cycle — the number of distinct phase offsets the coordinator can assign.
// The quotient is floored with a tolerance: plain truncation turns
// float-representation error on exact ratios (0.3/0.1 = 2.999…) into a
// lost slot and a spurious Validate rejection.
func (c Config) NumSlots() int {
	return int(math.Floor(c.CycleS/c.OverloadS + 1e-9))
}

// DefaultConfig returns link parameters matched to the paper's schedule
// (150 s overload / 300 s recovery) and SprintCon's 4 s control period.
func DefaultConfig() Config {
	return Config{
		TTLS:          12,
		RefreshS:      4,
		BeatPeriodS:   2,
		BeatTimeoutS:  8,
		RetryBackoffS: 1,
		MaxBackoffS:   8,
		OverloadS:     150,
		CycleS:        450,
	}
}

// Validate reports structural errors in the configuration. Every duration is
// rejected when NaN, Inf or non-positive — a single NaN TTL silently
// disables the entire degraded-mode ladder.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TTLS", c.TTLS},
		{"RefreshS", c.RefreshS},
		{"BeatPeriodS", c.BeatPeriodS},
		{"BeatTimeoutS", c.BeatTimeoutS},
		{"RetryBackoffS", c.RetryBackoffS},
		{"MaxBackoffS", c.MaxBackoffS},
		{"OverloadS", c.OverloadS},
		{"CycleS", c.CycleS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("link: %s is %g; every link parameter must be finite", f.name, f.v)
		}
		if f.v <= 0 {
			return fmt.Errorf("link: %s must be positive (got %g)", f.name, f.v)
		}
	}
	switch {
	case c.TTLS <= c.RefreshS:
		return errors.New("link: TTLS must exceed RefreshS, or healthy racks flap degraded between refreshes")
	case c.BeatTimeoutS < c.BeatPeriodS:
		return errors.New("link: BeatTimeoutS must be at least BeatPeriodS")
	case c.MaxBackoffS < c.RetryBackoffS:
		return errors.New("link: MaxBackoffS must be at least RetryBackoffS")
	case c.CycleS <= c.OverloadS:
		return errors.New("link: CycleS must exceed OverloadS")
	}
	return nil
}

// Budget is the effective budget a Client exposes to its rack's controller
// each tick: either the live lease's grant or the degraded standalone
// fallback.
type Budget struct {
	PCbCapW       float64
	AllowOverload bool
	AllowUPS      bool
	PhaseOffsetS  float64
	// Degraded reports that the budget is the standalone fallback (no
	// valid lease).
	Degraded bool
}

// scheduleOverloading reports whether the periodic overload schedule with
// the given phase offset is inside an overload window at time now (the same
// square wave the allocator runs, anchored at burst start 0).
func scheduleOverloading(cfg Config, offsetS, now float64) bool {
	phase := math.Mod(now+offsetS, cfg.CycleS)
	if phase < 0 {
		phase += cfg.CycleS
	}
	return phase < cfg.OverloadS
}

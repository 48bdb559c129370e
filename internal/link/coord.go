package link

import (
	"fmt"
	"math"

	"sprintcon/internal/obs"
)

// CoordConfig parameterises the cluster coordinator.
type CoordConfig struct {
	Link     Config
	NumRacks int
	// SlotCapacity is K, the number of racks the feeder budget lets
	// overload concurrently: K = floor((FeederBudgetW − N·rated)/bonusW).
	// The coordinator packs live racks K at a time into the
	// floor(CycleS/OverloadS) non-overlapping overload slots of the cycle.
	SlotCapacity int
}

// NumSlots returns how many non-overlapping overload windows fit in one
// cycle; it delegates to the link configuration's schedule arithmetic.
func (c CoordConfig) NumSlots() int {
	return c.Link.NumSlots()
}

// Validate reports structural errors: the link config itself, and whether
// every rack can be given a slot when all are live.
func (c CoordConfig) Validate() error {
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.NumRacks <= 0 {
		return fmt.Errorf("link: coordinator needs at least one rack (got %d)", c.NumRacks)
	}
	if c.SlotCapacity < 1 {
		return fmt.Errorf("link: slot capacity %d; the feeder budget must fund at least one concurrent overload", c.SlotCapacity)
	}
	if need := (c.NumRacks + c.SlotCapacity - 1) / c.SlotCapacity; need > c.NumSlots() {
		return fmt.Errorf("link: %d racks at %d per slot need %d slots but the %g s cycle holds only %d overload windows of %g s",
			c.NumRacks, c.SlotCapacity, need, c.Link.CycleS, c.NumSlots(), c.Link.OverloadS)
	}
	return nil
}

// slotOffset returns the allocator phase offset that places a rack's
// overload window at [k·OverloadS, (k+1)·OverloadS) within the cycle. The
// allocator overloads when mod(now + offset, cycle) < OverloadS, so slot k
// needs offset (cycle − k·overload) mod cycle — always non-negative, as the
// allocator requires.
func (c CoordConfig) slotOffset(k int) float64 {
	return math.Mod(c.Link.CycleS-float64(k)*c.Link.OverloadS, c.Link.CycleS)
}

// rackState is the coordinator's per-rack view of the link.
type rackState struct {
	nextVersion uint64
	lastBeatS   float64
	haveBeat    bool
	// sprintExpiryS is the expiry of the newest AllowOverload grant ever
	// sent. Until it passes, the rack may legitimately still be sprinting
	// in its slot, so the slot cannot be reassigned.
	sprintExpiryS float64
	nextSendS     float64
	nextRetryS    float64
	backoffS      float64
	// Last grant contents actually sent, to force an immediate re-grant
	// when the packing moves the rack.
	sentOffset   float64
	sentOverload bool
	everSent     bool
	presumedDown bool
	degradedByHb bool // rack itself reported degraded in its last beat
	// lastSpanID is the observability span of the newest grant put on the
	// wire for this rack — the causal parent of a later presumed-degraded
	// or silent-rack event. Soft state: a coordinator restart wipes it.
	lastSpanID uint64
}

// CoordStats counts coordinator-side events.
type CoordStats struct {
	Grants   int // full (sprint) grants issued
	Probes   int // degraded re-sync probes issued to unreachable racks
	Repacks  int // slot-assignment changes
	Presumed int // transitions into presumed-degraded
	// PeakBackoffS is the largest re-grant retry backoff actually used
	// (capped at MaxBackoffS); under a sustained partition it
	// climbs the exponential ladder to the cap.
	PeakBackoffS float64
}

// Coordinator is the cluster-side end of the control link: it turns
// heartbeat traffic into per-rack link health, issues leases on the refresh
// cadence with exponential backoff toward unreachable racks, and packs the
// overload slots so at most SlotCapacity live racks sprint concurrently.
// Deterministic: all decisions are functions of configuration, observed
// beats and the simulation clock.
type Coordinator struct {
	cfg   CoordConfig
	racks []rackState
	stats CoordStats
	plane *obs.Plane
}

// Attach wires the coordinator's observability plane (nil detaches): grant
// and probe spans, presumed-degraded transitions, restart edges, and the
// silent-rack detector. Purely observational.
func (c *Coordinator) Attach(p *obs.Plane) { c.plane = p }

// NewCoordinator builds a coordinator that assumes every rack checked in at
// time zero holding its bootstrap lease (see Bootstrap).
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, racks: make([]rackState, cfg.NumRacks)}
	for i := range c.racks {
		c.racks[i] = rackState{
			nextVersion:   2, // version 1 is the bootstrap lease
			haveBeat:      true,
			sprintExpiryS: LeaseTTLS,
			nextSendS:     RefreshS,
			backoffS:      RetryBackoffS,
			sentOffset:    cfg.slotOffset(i / cfg.SlotCapacity),
			sentOverload:  true,
			everSent:      true,
		}
	}
	return c, nil
}

// Bootstrap returns the version-1 leases each rack powers on with — the
// static slot assignment a freshly commissioned cluster is configured with
// before any network traffic flows.
func (c *Coordinator) Bootstrap() []Lease {
	out := make([]Lease, c.cfg.NumRacks)
	for i := range out {
		out[i] = Lease{
			RackID:        i,
			Version:       1,
			IssuedAtS:     0,
			TTLS:          LeaseTTLS,
			AllowOverload: true,
			AllowUPS:      true,
			PhaseOffsetS:  c.cfg.slotOffset(i / c.cfg.SlotCapacity),
		}
		out[i].SpanID = c.plane.GrantSpan(0, i, 1, false, false, 0)
		c.racks[i].lastSpanID = out[i].SpanID
	}
	return out
}

// Observe ingests one delivered heartbeat at time now.
func (c *Coordinator) Observe(hb Heartbeat, now float64) {
	if hb.RackID < 0 || hb.RackID >= len(c.racks) {
		return
	}
	r := &c.racks[hb.RackID]
	r.lastBeatS = now
	r.haveBeat = true
	r.degradedByHb = hb.Degraded
	r.backoffS = RetryBackoffS
	// Version recovery: after a coordinator restart the echoed lease
	// version is the only record of where the monotone counter got to.
	if hb.LeaseVersion >= r.nextVersion {
		r.nextVersion = hb.LeaseVersion + 1
	}
}

// reachable reports whether the rack's last beat is within the timeout.
func (c *Coordinator) reachable(rack int, now float64) bool {
	r := &c.racks[rack]
	return r.haveBeat && now-r.lastBeatS <= BeatTimeoutS+1e-9
}

// Stats returns the coordinator counters.
func (c *Coordinator) Stats() CoordStats { return c.stats }

// Restart wipes the coordinator's soft state as a crash-restart would: no
// beats seen, version counters at zero pending heartbeat recovery, and —
// conservatively — a full TTL during which any rack may still hold a sprint
// grant issued before the crash.
func (c *Coordinator) Restart(now float64) {
	c.plane.CoordRestart(now)
	for i := range c.racks {
		c.racks[i] = rackState{
			nextVersion:   1,
			sprintExpiryS: now + LeaseTTLS,
			nextSendS:     now,
			backoffS:      RetryBackoffS,
		}
	}
}

// Step advances the coordinator to time now and returns the leases to put
// on the wire, in rack-ID order. The caller sends them through the
// Transport.
func (c *Coordinator) Step(now float64) []Lease {
	// Pass 1: reachability and presumed-degraded transitions, then the live
	// set. A slot is reclaimed only after the newest sprint grant the rack
	// could be holding has expired — before that the rack may legitimately
	// still be sprinting, and doubling up its slot would overrun the feeder.
	live := make([]int, 0, len(c.racks))
	for i := range c.racks {
		r := &c.racks[i]
		// Silent-rack detection: the heartbeat age is the coordinator's
		// only liveness signal, and it is evaluated here — while the
		// coordinator itself is down Step never runs, so a dead
		// coordinator cannot accuse racks of silence.
		if c.plane != nil {
			age := math.NaN()
			if r.haveBeat {
				age = now - r.lastBeatS
			}
			c.plane.ObserveBeatAge(now, i, age, r.lastSpanID)
		}
		down := !c.reachable(i, now) && now > r.sprintExpiryS+1e-9
		if down && !r.presumedDown {
			c.stats.Presumed++
			c.plane.PresumedDegraded(now, i, r.lastSpanID)
		}
		r.presumedDown = down
		if !down {
			live = append(live, i)
		}
	}

	// Pass 2: pack live racks K at a time into slots, in ID order. A single
	// membership change moves at most the racks after the gap, and in the
	// common one-rack-lost case exactly one rack shifts slots.
	offset := make(map[int]float64, len(live))
	for idx, rack := range live {
		offset[rack] = c.cfg.slotOffset(idx / c.cfg.SlotCapacity)
	}

	// Pass 3: issue grants.
	var out []Lease
	for i := range c.racks {
		r := &c.racks[i]
		if c.reachable(i, now) {
			want := offset[i] // reachable ⇒ never presumed down ⇒ always packed
			moved := r.everSent && (want != r.sentOffset || !r.sentOverload)
			if now < r.nextSendS-1e-9 && !moved {
				continue
			}
			if moved && want != r.sentOffset {
				c.stats.Repacks++
			}
			l := Lease{
				RackID:        i,
				Version:       r.nextVersion,
				IssuedAtS:     now,
				TTLS:          LeaseTTLS,
				AllowOverload: true,
				AllowUPS:      true,
				PhaseOffsetS:  want,
			}
			l.SpanID = c.plane.GrantSpan(now, i, l.Version, false, moved && want != r.sentOffset, 0)
			r.lastSpanID = l.SpanID
			r.nextVersion++
			r.sprintExpiryS = l.ExpiresAtS()
			r.nextSendS = now + RefreshS
			r.sentOffset = want
			r.sentOverload = true
			r.everSent = true
			c.stats.Grants++
			out = append(out, l)
			continue
		}
		// Unreachable: retry with exponential backoff, but send only
		// degraded probes — a sprint grant to a rack we cannot hear might
		// land while its slot is being reassigned. A probe, if it arrives,
		// moves the rack to the safe standalone budget and solicits the
		// heartbeat that heals the link.
		if now < r.nextRetryS-1e-9 {
			continue
		}
		l := Lease{
			RackID:       i,
			Version:      r.nextVersion,
			IssuedAtS:    now,
			TTLS:         LeaseTTLS,
			PhaseOffsetS: r.sentOffset,
		}
		l.SpanID = c.plane.GrantSpan(now, i, l.Version, true, false, r.backoffS)
		r.lastSpanID = l.SpanID
		r.nextVersion++
		r.nextRetryS = now + r.backoffS
		if r.backoffS > c.stats.PeakBackoffS {
			c.stats.PeakBackoffS = r.backoffS
		}
		r.backoffS = math.Min(r.backoffS*2, MaxBackoffS)
		r.sentOverload = false
		r.everSent = true
		c.stats.Probes++
		out = append(out, l)
	}
	return out
}

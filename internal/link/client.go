package link

import (
	"math"

	"sprintcon/internal/obs"
)

// Client is the rack-side end of the control link. It owns the lease
// discipline: version-monotone acceptance of grants, the degraded-mode
// ladder on expiry, re-sync accounting on heal, and the heartbeat cadence.
// It holds no pointer into the rack's controller — each tick the cluster
// loop feeds accepted grants in via Offer, advances the ladder with Advance,
// and applies the returned Budget to the rack's SprintCon.
type Client struct {
	cfg Config
	id  int

	lease    Lease
	hasLease bool
	degraded bool

	// suppressUntilS is the overload-entry guard: when a re-phase lands
	// mid-window while the rack was not overloading, entering the window
	// late would stack a partial overload onto other racks' slots, so the
	// client withholds overload permission until that window ends.
	suppressUntilS float64

	// lastOverloadEndS tracks the most recent time the budget permitted a
	// scheduled overload (valid when everOverloaded). A re-phase to an
	// earlier slot would otherwise shorten the breaker's recovery interval
	// below CycleS−OverloadS — the margin the schedule's thermal safety
	// argument rests on — so overload entry after a re-phase waits out a
	// full recovery period from this point.
	lastOverloadEndS float64
	everOverloaded   bool

	lastBeatS float64
	beatEver  bool

	// Telemetry the cluster loop caches for the next heartbeat, captured
	// from the rack's tick snapshot (never by re-measuring the plant, which
	// would consume rack RNG).
	beatMeasuredW   float64
	beatSoC         float64
	beatOverloading bool
	beatMode        int

	stats ClientStats

	// plane is the rack's observability plane (nil = disabled). Every
	// lease state transition is mirrored there as a span causally linked
	// to the grant that crossed the transport.
	plane *obs.Plane
}

// ClientStats counts the client's lease lifecycle events.
type ClientStats struct {
	Accepted  int     // grants accepted (version advanced)
	Stale     int     // grants rejected as stale or duplicate
	Expiries  int     // lease expiries (degraded-mode entries)
	Resyncs   int     // degraded→coordinated recoveries
	DegradedS float64 // total seconds spent in degraded mode
	// LastResyncS is the simulation time of the most recent recovery
	// (NaN until one happens); experiments use it to measure re-entry
	// latency after a heal.
	LastResyncS float64
}

// NewClient builds the link client for one rack. boot, when non-nil, is the
// rack's initial lease — the static configuration it powered on with —
// so a cluster starts coordinated instead of spending the first TTL
// degraded.
func NewClient(cfg Config, rackID int, boot *Lease) *Client {
	c := &Client{cfg: cfg, id: rackID}
	c.stats.LastResyncS = math.NaN()
	if boot != nil {
		c.lease = *boot
		c.hasLease = true
	}
	return c
}

// Offer presents a delivered grant. Only versions strictly newer than the
// current lease are accepted; duplicates and reordered stale grants are
// counted and dropped. now is the delivery time, used by the re-phase
// overload-entry guard.
func (c *Client) Offer(now float64, l Lease) bool {
	if l.RackID != c.id {
		return false
	}
	if c.hasLease && l.Version <= c.lease.Version {
		c.stats.Stale++
		c.plane.LeaseStale(now, l.SpanID, l.Version)
		return false
	}
	prevOffset := c.lease.PhaseOffsetS
	hadLease := c.hasLease
	wasOverloading := hadLease && !c.degraded && c.lease.AllowOverload &&
		scheduleOverloading(c.cfg, prevOffset, now)
	// A grant re-phases when it assigns a slot different from the live
	// lease's — or when there is no live lease to compare against (first
	// grant after a fail-safe restart dropped it), where the prior slot is
	// unknown and both guards must assume the worst.
	rephased := !hadLease || l.PhaseOffsetS != prevOffset
	c.lease = l
	c.hasLease = true
	c.stats.Accepted++
	c.plane.LeaseAccepted(now, l.SpanID, l.Version)
	// Re-phase guard: if the new slot is already mid-window and the rack
	// wasn't overloading, joining late would overlap the tail of this
	// window with whoever owns the next slot. Sit this window out.
	if rephased && !wasOverloading &&
		l.AllowOverload && scheduleOverloading(c.cfg, l.PhaseOffsetS, now) {
		phase := math.Mod(now+l.PhaseOffsetS, c.cfg.CycleS)
		if phase < 0 {
			phase += c.cfg.CycleS
		}
		if until := now + (c.cfg.OverloadS - phase); until > c.suppressUntilS {
			c.suppressUntilS = until
		}
	}
	// Recovery guard: a re-phase to an earlier slot would start the next
	// overload window less than a full recovery period after the last one,
	// leaving the breaker's thermal accumulator partly charged. Withhold
	// overload until CycleS−OverloadS has elapsed since the rack last held
	// an overload window, whatever slot the new lease assigns. (For a grant
	// that keeps the slot this is a no-op: the next scheduled window is
	// never sooner than that.)
	if rephased && l.AllowOverload && c.everOverloaded {
		if until := c.lastOverloadEndS + (c.cfg.CycleS - c.cfg.OverloadS); until > c.suppressUntilS {
			c.suppressUntilS = until
		}
	}
	return true
}

// Advance moves the ladder to time now and returns the budget the rack's
// controller must run under for this tick. dt is the tick length, used to
// accumulate degraded-mode seconds.
func (c *Client) Advance(now, dt float64) Budget {
	valid := c.hasLease && (c.cfg.TrustLastGrant || now < c.lease.ExpiresAtS()+1e-9)
	if valid && c.degraded {
		c.degraded = false
		c.stats.Resyncs++
		c.stats.LastResyncS = now
		c.plane.LeaseResynced(now, c.lease.Version)
	}
	if !valid && !c.degraded {
		c.degraded = true
		c.stats.Expiries++
		c.plane.LeaseExpired(now, c.lease.Version)
	}
	c.plane.ObserveLink(c.LeaseAgeS(now))
	if c.degraded {
		c.stats.DegradedS += dt
		// The standalone fallback: rated breaker power only, overloads
		// suspended, UPS discharge disabled — safe without coordination.
		return Budget{Degraded: true}
	}
	b := Budget{
		PCbCapW:       c.lease.PCbCapW,
		AllowOverload: c.lease.AllowOverload,
		AllowUPS:      c.lease.AllowUPS,
		PhaseOffsetS:  c.lease.PhaseOffsetS,
	}
	if b.AllowOverload && now < c.suppressUntilS-1e-9 {
		b.AllowOverload = false
	}
	if b.AllowOverload && scheduleOverloading(c.cfg, b.PhaseOffsetS, now) {
		c.everOverloaded = true
		c.lastOverloadEndS = now
	}
	return b
}

// LeaseVersion returns the current lease version (0 when none was ever
// held).
func (c *Client) LeaseVersion() uint64 {
	if !c.hasLease {
		return 0
	}
	return c.lease.Version
}

// LeaseAgeS returns how long ago the current lease was issued, or NaN when
// none is held; exported as a telemetry gauge.
func (c *Client) LeaseAgeS(now float64) float64 {
	if !c.hasLease {
		return math.NaN()
	}
	return now - c.lease.IssuedAtS
}

// Stats returns the lifecycle counters.
func (c *Client) Stats() ClientStats { return c.stats }

// NoteTelemetry caches the rack observations the next heartbeat will carry.
func (c *Client) NoteTelemetry(measuredW, soc float64, overloading bool, mode int) {
	c.beatMeasuredW = measuredW
	c.beatSoC = soc
	c.beatOverloading = overloading
	c.beatMode = mode
}

// MaybeBeat returns the heartbeat due at time now, if any: one beat every
// BeatPeriodS, starting at the first call.
func (c *Client) MaybeBeat(now float64) (Heartbeat, bool) {
	if c.beatEver && now < c.lastBeatS+BeatPeriodS-1e-9 {
		return Heartbeat{}, false
	}
	c.beatEver = true
	c.lastBeatS = now
	c.plane.HeartbeatSent(now, c.LeaseVersion())
	return Heartbeat{
		RackID:       c.id,
		SentAtS:      now,
		MeasuredW:    c.beatMeasuredW,
		SoC:          c.beatSoC,
		Overloading:  c.beatOverloading,
		Mode:         c.beatMode,
		LeaseVersion: c.LeaseVersion(),
		Degraded:     c.degraded,
	}, true
}

// FailSafe drops the lease outright — the rack's controller restarted
// without link state (e.g. a checkpoint predating the link) and must fall
// back until the coordinator re-grants. The overload-entry guard state
// (suppression window, overload history) survives: the next accepted grant
// re-runs both entry guards as if it were a re-phase, so a restart cannot be
// used to join a window mid-flight or skip the recovery interval.
func (c *Client) FailSafe(now float64) {
	c.hasLease = false
	c.lease = Lease{RackID: c.id}
	c.plane.LeaseFailSafe(now)
}

// Attach wires the rack's observability plane into the lease lifecycle
// (nil detaches). Purely observational: no control decision changes. A
// lease already held (the bootstrap lease) is recorded as accepted at its
// issue time, so the trace's causal chain starts at the bootstrap grant.
func (c *Client) Attach(p *obs.Plane) {
	c.plane = p
	if p != nil && c.hasLease {
		p.LeaseAccepted(c.lease.IssuedAtS, c.lease.SpanID, c.lease.Version)
	}
}

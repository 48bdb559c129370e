package link

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sprintcon/internal/faults"
)

// Transport is the simulated coordinator↔rack network. Messages incur one
// tick of base latency; the link-scoped faults of a Plan add seeded loss,
// delay (and therefore reordering), duplication, per-rack partitions and
// coordinator downtime on top. The RNG is consumed only while a loss, delay
// or duplication fault is active, so a fault-free link costs nothing and
// stays bit-identical to runs that never construct faults.
//
// Not safe for concurrent use: the cluster loop drives it in sequential
// per-tick phases (fault step → deliveries → rack ticks → sends).
type Transport struct {
	faults.Schedule
	numRacks int
	dt       float64
	rng      *rand.Rand
	now      float64

	seq    uint64
	grants []pendingMsg // coordinator → racks, in flight
	beats  []pendingMsg // racks → coordinator, in flight

	grantBuf []Lease
	beatBuf  []Heartbeat

	stats TransportStats
}

type pendingMsg struct {
	deliverAtS float64
	seq        uint64
	grant      Lease
	beat       Heartbeat
	isGrant    bool
}

// TransportStats counts the link's traffic and losses.
type TransportStats struct {
	GrantsSent      int // grant send attempts (before faults)
	GrantsLost      int // dropped by loss faults
	GrantsPartition int // dropped by partitions or coordinator downtime
	GrantsDuped     int // extra copies injected by duplication faults
	BeatsSent       int
	BeatsLost       int
	BeatsPartition  int
	BeatsDuped      int
}

// NewTransport builds the network for a validated link-scoped fault plan.
// It panics when handed a non-link fault — Plan.Split is the supported way
// to carve a scenario's schedule — or an invalid rack count, dt or plan.
func NewTransport(plan faults.Plan, numRacks int, seed int64, dt float64) *Transport {
	if err := plan.Validate(); err != nil {
		panic(fmt.Sprintf("link: NewTransport on invalid plan: %v", err))
	}
	for _, f := range plan.Faults {
		if f.Kind.Scope() != faults.ScopeLink {
			panic(fmt.Sprintf("link: NewTransport handed %s-scoped fault %s; the transport consumes only link faults (use Plan.Split)",
				f.Kind.Scope(), f.Kind))
		}
	}
	if numRacks <= 0 {
		panic(fmt.Sprintf("link: NewTransport with %d racks", numRacks))
	}
	if dt <= 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("link: NewTransport with dt %g", dt))
	}
	return &Transport{
		Schedule: faults.NewSchedule(plan),
		numRacks: numRacks,
		dt:       dt,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Step advances the fault schedule to time now and returns the faults whose
// active state changed this tick, for the caller's event log.
func (t *Transport) Step(now float64) (onsets, clears []faults.Fault) {
	t.now = now
	return t.Schedule.Step(now)
}

// CoordinatorDown reports whether a coordinator-crash fault is active.
func (t *Transport) CoordinatorDown() bool {
	_, ok := t.Strongest(faults.CoordinatorCrash)
	return ok
}

// Partitioned reports whether the given rack is currently cut off from the
// coordinator (both directions).
func (t *Transport) Partitioned(rack int) bool {
	return t.Hits(faults.LinkPartition, rack)
}

// Stats returns the traffic counters.
func (t *Transport) Stats() TransportStats { return t.stats }

// transit decides one message's fate: dropped (lost=true), or delivered at
// the returned time (plus optionally duplicated). The RNG draw order is
// fixed — loss, then delay, then duplication — and draws happen only while
// the corresponding fault is active, keeping fault-free traffic free of RNG
// consumption.
func (t *Transport) transit(now float64) (deliverAt float64, dup, lost bool) {
	if f, ok := t.Strongest(faults.LinkLoss); ok {
		if t.rng.Float64() < f.Severity {
			return 0, false, true
		}
	}
	deliverAt = now + t.dt
	if f, ok := t.Strongest(faults.LinkDelay); ok {
		deliverAt += t.rng.Float64() * f.Severity
	}
	if f, ok := t.Strongest(faults.LinkDup); ok {
		dup = t.rng.Float64() < f.Severity
	}
	return deliverAt, dup, false
}

// SendGrant puts a coordinator→rack lease on the wire at time now.
func (t *Transport) SendGrant(now float64, l Lease) {
	t.stats.GrantsSent++
	if t.Partitioned(l.RackID) || t.CoordinatorDown() {
		t.stats.GrantsPartition++
		return
	}
	at, dup, lost := t.transit(now)
	if lost {
		t.stats.GrantsLost++
		return
	}
	t.seq++
	t.grants = append(t.grants, pendingMsg{deliverAtS: at, seq: t.seq, grant: l, isGrant: true})
	if dup {
		// The duplicate trails the original by one tick: same payload,
		// distinct arrival, no extra RNG.
		t.stats.GrantsDuped++
		t.seq++
		t.grants = append(t.grants, pendingMsg{deliverAtS: at + t.dt, seq: t.seq, grant: l, isGrant: true})
	}
}

// SendBeat puts a rack→coordinator heartbeat on the wire at time now.
func (t *Transport) SendBeat(now float64, hb Heartbeat) {
	t.stats.BeatsSent++
	if t.Partitioned(hb.RackID) {
		t.stats.BeatsPartition++
		return
	}
	at, dup, lost := t.transit(now)
	if lost {
		t.stats.BeatsLost++
		return
	}
	t.seq++
	t.beats = append(t.beats, pendingMsg{deliverAtS: at, seq: t.seq, beat: hb})
	if dup {
		t.stats.BeatsDuped++
		t.seq++
		t.beats = append(t.beats, pendingMsg{deliverAtS: at + t.dt, seq: t.seq, beat: hb})
	}
}

// drain moves every message due at or before now out of queue, ordered by
// (deliverAt, seq) so reordered deliveries are still deterministic. A
// partition at delivery time drops the message — the link was down when the
// bits would have arrived.
func drain(queue []pendingMsg, now float64) (due, rest []pendingMsg) {
	rest = queue[:0]
	for _, m := range queue {
		if m.deliverAtS <= now+1e-9 {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].deliverAtS != due[j].deliverAtS {
			return due[i].deliverAtS < due[j].deliverAtS
		}
		return due[i].seq < due[j].seq
	})
	return due, rest
}

// DeliverGrants returns the leases arriving at rack `rack` by time now, in
// arrival order. Grants whose destination is partitioned at delivery time
// are dropped.
func (t *Transport) DeliverGrants(rack int, now float64) []Lease {
	var out []pendingMsg
	kept := t.grants[:0]
	for _, m := range t.grants {
		if m.grant.RackID != rack {
			kept = append(kept, m)
			continue
		}
		if m.deliverAtS > now+1e-9 {
			kept = append(kept, m)
			continue
		}
		if t.Partitioned(rack) {
			t.stats.GrantsPartition++
			continue
		}
		out = append(out, m)
	}
	t.grants = kept
	sort.Slice(out, func(i, j int) bool {
		if out[i].deliverAtS != out[j].deliverAtS {
			return out[i].deliverAtS < out[j].deliverAtS
		}
		return out[i].seq < out[j].seq
	})
	res := t.grantBuf[:0]
	for _, m := range out {
		res = append(res, m.grant)
	}
	t.grantBuf = res
	return res
}

// DeliverBeats returns the heartbeats arriving at the coordinator by time
// now, in arrival order. Beats from a rack partitioned at delivery time, or
// arriving while the coordinator is down, are dropped.
func (t *Transport) DeliverBeats(now float64) []Heartbeat {
	var due []pendingMsg
	due, t.beats = drain(t.beats, now)
	out := t.beatBuf[:0]
	for _, m := range due {
		if t.Partitioned(m.beat.RackID) || t.CoordinatorDown() {
			t.stats.BeatsPartition++
			continue
		}
		out = append(out, m.beat)
	}
	t.beatBuf = out
	return out
}

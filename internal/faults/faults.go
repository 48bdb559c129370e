// Package faults is the runtime fault-injection subsystem: a deterministic
// schedule of sensor, actuator and component failures threaded through the
// simulation tick loop. The paper's supervisor exists because components
// misbehave mid-sprint — power monitors freeze, DVFS actuators stick, UPS
// discharge paths open — yet the original evaluation only perturbs static
// parameters. Each Fault here is a schedulable event with onset, duration
// and severity; the Injector turns a Plan into per-tick corruption of the
// measurement stream and per-component failure state, so controllers can be
// exercised (and hardened) against faults that occur *during* a run.
//
// The taxonomy (see DESIGN.md §8 for the defense matrix):
//
//	MonitorDropout   — the rack power monitor returns NaN (no reading)
//	MonitorFreeze    — the monitor repeats its last pre-onset reading
//	MonitorBias      — readings scaled by (1 + Severity), e.g. −0.4 reads 40% low
//	MeasurementDelay — readings delivered Severity seconds late
//	ActuatorStuck    — a server's DVFS writes are silently ignored
//	ActuatorLag      — writes move only a Severity fraction toward the command
//	ServerCrash      — a server goes dark: no power, no work, no telemetry
//	UPSPathFailure   — the battery discharge path delivers nothing
//	UPSGaugeBias     — the SoC gauge reads Severity too high (or low)
//	ControllerCrash  — the controller process dies; frequencies hold, UPS
//	                   requests stop, and the engine restarts the controller
//	                   Severity seconds later from the latest checkpoint
//	                   (or into the fail-safe state without one)
//
// Link-scoped kinds attack the coordinator↔rack control link of a cluster
// run (DESIGN.md §12). They are scheduled through the same Plan so they
// compose with the kinds above, but they are consumed by the cluster's link
// transport, never by a rack-local Injector — single-rack scenarios reject
// them at validation time:
//
//	LinkLoss         — control-link messages dropped with probability Severity
//	LinkDelay        — messages delayed by a seeded uniform draw from
//	                   [0, Severity] seconds (reordering)
//	LinkDup          — messages duplicated with probability Severity
//	LinkPartition    — rack `Server` (or all racks) fully partitioned from
//	                   the coordinator, both directions
//	CoordinatorCrash — the coordinator process is down: heartbeats are lost,
//	                   no grants are issued; on clear it restarts empty and
//	                   re-syncs from rack heartbeats
//
// All injection is pure state-machine logic driven by the schedule: two runs
// with identical scenarios and identical plans are bit-identical.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Kind names a fault type. The string values are stable identifiers used in
// scenario JSON, event logs and CLI flags.
type Kind string

// The supported fault kinds.
const (
	MonitorDropout   Kind = "monitor-dropout"
	MonitorFreeze    Kind = "monitor-freeze"
	MonitorBias      Kind = "monitor-bias"
	MeasurementDelay Kind = "measurement-delay"
	ActuatorStuck    Kind = "actuator-stuck"
	ActuatorLag      Kind = "actuator-lag"
	ServerCrash      Kind = "server-crash"
	UPSPathFailure   Kind = "ups-path-failure"
	UPSGaugeBias     Kind = "ups-gauge-bias"
	ControllerCrash  Kind = "controller-crash"

	LinkLoss         Kind = "link-loss"
	LinkDelay        Kind = "link-delay"
	LinkDup          Kind = "link-duplicate"
	LinkPartition    Kind = "link-partition"
	CoordinatorCrash Kind = "coordinator-crash"
)

// Kinds returns every supported fault kind, in taxonomy order.
func Kinds() []Kind {
	return []Kind{
		MonitorDropout, MonitorFreeze, MonitorBias, MeasurementDelay,
		ActuatorStuck, ActuatorLag, ServerCrash, UPSPathFailure,
		UPSGaugeBias, ControllerCrash,
		LinkLoss, LinkDelay, LinkDup, LinkPartition, CoordinatorCrash,
	}
}

// KindsForScope returns the kinds of one scope, in taxonomy order — e.g.
// the kinds legal in a single-rack scenario are KindsForScope(ScopeRack)
// plus KindsForScope(ScopeServer).
func KindsForScope(s Scope) []Kind {
	var out []Kind
	for _, k := range Kinds() {
		if k.Scope() == s {
			out = append(out, k)
		}
	}
	return out
}

// Scope classifies what a fault kind attacks, which decides who consumes it:
// rack- and server-scoped kinds drive the rack-local Injector; link-scoped
// kinds drive the cluster's coordinator↔rack control link and are invalid in
// single-rack scenarios.
type Scope int

const (
	// ScopeRack faults hit a shared rack component (power monitor, UPS
	// path, controller process); the Server field is unused.
	ScopeRack Scope = iota
	// ScopeServer faults target one server (or all, via AllServers).
	ScopeServer
	// ScopeLink faults attack the coordinator↔rack control link; for
	// LinkPartition the Server field selects the partitioned *rack* index
	// (AllRacks for every rack).
	ScopeLink
)

// String names the scope for errors and logs.
func (s Scope) String() string {
	switch s {
	case ScopeRack:
		return "rack"
	case ScopeServer:
		return "server"
	case ScopeLink:
		return "link"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Scope returns the kind's scope. Unknown kinds report ScopeRack; callers
// validate kinds before consulting the scope.
func (k Kind) Scope() Scope {
	switch k {
	case ActuatorStuck, ActuatorLag, ServerCrash:
		return ScopeServer
	case LinkLoss, LinkDelay, LinkDup, LinkPartition, CoordinatorCrash:
		return ScopeLink
	default:
		return ScopeRack
	}
}

// valid reports whether k is a known kind.
func (k Kind) valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// perServer reports whether the kind targets one server (Server field used).
func (k Kind) perServer() bool { return k.Scope() == ScopeServer }

// perRack reports whether the kind targets one rack of a cluster through the
// Server field (only LinkPartition today).
func (k Kind) perRack() bool { return k == LinkPartition }

// Fault is one schedulable failure: it becomes active at OnsetS and clears
// DurationS later. Severity is kind-specific (see the package comment);
// kinds without a natural severity ignore it. Server selects the affected
// server for per-server kinds; AllServers (-1) hits the whole rack.
type Fault struct {
	Kind      Kind    `json:"Kind"`
	OnsetS    float64 `json:"OnsetS"`
	DurationS float64 `json:"DurationS"`
	Severity  float64 `json:"Severity,omitempty"`
	Server    int     `json:"Server,omitempty"`
}

// AllServers targets every server with a per-server fault kind.
const AllServers = -1

// AllRacks targets every rack with a per-rack link fault kind (the Server
// field doubles as the rack selector for link-scoped kinds).
const AllRacks = -1

// String formats the fault for logs and events.
func (f Fault) String() string {
	s := fmt.Sprintf("%s onset=%gs duration=%gs", f.Kind, f.OnsetS, f.DurationS)
	if f.Severity != 0 {
		s += fmt.Sprintf(" severity=%g", f.Severity)
	}
	if f.Kind.perServer() {
		if f.Server == AllServers {
			s += " server=all"
		} else {
			s += fmt.Sprintf(" server=%d", f.Server)
		}
	}
	if f.Kind.perRack() {
		if f.Server == AllRacks {
			s += " rack=all"
		} else {
			s += fmt.Sprintf(" rack=%d", f.Server)
		}
	}
	return s
}

// Active reports whether the fault is active at time now (onset inclusive,
// clear exclusive).
func (f Fault) Active(now float64) bool {
	return now >= f.OnsetS && now < f.OnsetS+f.DurationS
}

// Validate reports structural errors in one fault.
func (f Fault) Validate() error {
	if !f.Kind.valid() {
		return fmt.Errorf("faults: unknown kind %q", f.Kind)
	}
	if math.IsNaN(f.OnsetS) || math.IsInf(f.OnsetS, 0) || f.OnsetS < 0 {
		return fmt.Errorf("faults: %s: onset %g must be finite and non-negative", f.Kind, f.OnsetS)
	}
	if math.IsNaN(f.DurationS) || math.IsInf(f.DurationS, 0) || f.DurationS <= 0 {
		return fmt.Errorf("faults: %s: duration %g must be finite and positive", f.Kind, f.DurationS)
	}
	if math.IsNaN(f.Severity) || math.IsInf(f.Severity, 0) {
		return fmt.Errorf("faults: %s: severity must be finite", f.Kind)
	}
	switch f.Kind {
	case MonitorBias:
		if f.Severity <= -1 {
			return fmt.Errorf("faults: monitor-bias severity %g must exceed -1", f.Severity)
		}
	case MeasurementDelay:
		if f.Severity <= 0 {
			return fmt.Errorf("faults: measurement-delay severity %g must be a positive delay in seconds", f.Severity)
		}
	case ActuatorLag:
		if f.Severity <= 0 || f.Severity >= 1 {
			return fmt.Errorf("faults: actuator-lag severity %g must be in (0, 1)", f.Severity)
		}
	case UPSGaugeBias:
		if f.Severity < -1 || f.Severity > 1 {
			return fmt.Errorf("faults: ups-gauge-bias severity %g must be in [-1, 1]", f.Severity)
		}
	case ControllerCrash:
		if f.Severity < 0 {
			return fmt.Errorf("faults: controller-crash severity %g must be a non-negative restart delay in seconds", f.Severity)
		}
	case LinkLoss, LinkDup:
		if f.Severity <= 0 || f.Severity > 1 {
			return fmt.Errorf("faults: %s severity %g must be a probability in (0, 1]", f.Kind, f.Severity)
		}
	case LinkDelay:
		if f.Severity <= 0 {
			return fmt.Errorf("faults: link-delay severity %g must be a positive maximum delay in seconds", f.Severity)
		}
	}
	switch {
	case f.Kind.perServer():
		if f.Server < AllServers {
			return fmt.Errorf("faults: %s: server %d must be %d (all) or a server index", f.Kind, f.Server, AllServers)
		}
	case f.Kind.perRack():
		if f.Server < AllRacks {
			return fmt.Errorf("faults: %s: rack %d must be %d (all) or a rack index", f.Kind, f.Server, AllRacks)
		}
	default:
		if f.Server != 0 {
			return fmt.Errorf("faults: %s is not a per-server or per-rack fault (server must be 0)", f.Kind)
		}
	}
	return nil
}

// Plan is the fault schedule of one run. The zero value injects nothing.
type Plan struct {
	Faults []Fault `json:"Faults,omitempty"`
	// OnsetJitterS randomizes each fault's onset by a uniform draw from
	// [0, OnsetJitterS) seconds, deterministically from Seed. Zero (the
	// default) keeps the scheduled onsets exactly. Multi-rack runs offset
	// Seed per rack so the racks see independent fault timings instead of
	// a physically implausible synchronized failure wave.
	OnsetJitterS float64 `json:"OnsetJitterS,omitempty"`
	// Seed drives the onset jitter; plans with equal seeds produce equal
	// schedules. Ignored when OnsetJitterS is zero.
	Seed int64 `json:"Seed,omitempty"`
}

// Empty reports whether the plan injects no faults.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// Validate reports structural errors in the plan.
func (p Plan) Validate() error {
	if math.IsNaN(p.OnsetJitterS) || math.IsInf(p.OnsetJitterS, 0) || p.OnsetJitterS < 0 {
		return fmt.Errorf("faults: onset jitter %g must be finite and non-negative", p.OnsetJitterS)
	}
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
	}
	return nil
}

// ValidateForRack additionally checks server indices against a rack size,
// and rejects link-scoped faults outright: a single-rack scenario has no
// coordinator↔rack control link to inject them into, so accepting them would
// silently ignore part of the schedule. Cluster runs validate the full plan
// with ValidateForCluster and hand each rack only the rack/server-scoped
// remainder (Split).
func (p Plan) ValidateForRack(numServers int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, f := range p.Faults {
		if f.Kind.Scope() == ScopeLink {
			return fmt.Errorf("faults: fault %d: %s is link-scoped and needs a linked cluster run with a control link (hier.RunLinked, sprintsim -racks N -link); single-rack and static-offset scenarios have none", i, f.Kind)
		}
		if f.Kind.perServer() && f.Server >= numServers {
			return fmt.Errorf("faults: fault %d: server %d out of range (rack has %d)", i, f.Server, numServers)
		}
	}
	return nil
}

// ValidateForCluster checks the full plan of a linked cluster run: rack- and
// server-scoped faults against the per-rack size, link-scoped faults against
// the rack count.
func (p Plan) ValidateForCluster(numRacks, numServers int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, f := range p.Faults {
		switch {
		case f.Kind.perServer() && f.Server >= numServers:
			return fmt.Errorf("faults: fault %d: server %d out of range (rack has %d)", i, f.Server, numServers)
		case f.Kind.perRack() && f.Server >= numRacks:
			return fmt.Errorf("faults: fault %d: rack %d out of range (cluster has %d)", i, f.Server, numRacks)
		}
	}
	return nil
}

// Split partitions the plan by consumer: rack/server-scoped faults (for the
// per-rack Injectors) and link-scoped faults (for the cluster's link
// transport). The rack plan keeps the onset jitter and seed — multi-rack
// runs offset the seed per rack as before. The link plan's jitter is zeroed:
// the control link is one cluster-global schedule, and jittering it per rack
// would desynchronize what is physically a single network event.
func (p Plan) Split() (rackPlan, linkPlan Plan) {
	rackPlan = Plan{OnsetJitterS: p.OnsetJitterS, Seed: p.Seed}
	for _, f := range p.Faults {
		if f.Kind.Scope() == ScopeLink {
			linkPlan.Faults = append(linkPlan.Faults, f)
		} else {
			rackPlan.Faults = append(rackPlan.Faults, f)
		}
	}
	return rackPlan, linkPlan
}

// Schedule is a fault plan's on/off state: which of its faults are active
// as of the last Step. The rack Injector and the control link's transport
// each embed one. Not safe for concurrent use.
type Schedule struct {
	plan   Plan
	active []bool
}

// NewSchedule returns the schedule of p with every fault inactive.
func NewSchedule(p Plan) Schedule {
	return Schedule{plan: p, active: make([]bool, len(p.Faults))}
}

// Step advances the schedule to time now and returns the faults whose active
// state changed this tick: onsets became active, clears became inactive.
// The caller logs them and applies component state.
func (s *Schedule) Step(now float64) (onsets, clears []Fault) {
	for i, f := range s.plan.Faults {
		a := f.Active(now)
		if a == s.active[i] {
			continue
		}
		s.active[i] = a
		if a {
			onsets = append(onsets, f)
		} else {
			clears = append(clears, f)
		}
	}
	return onsets, clears
}

// Strongest returns the active fault of kind k (and ok), preferring the
// largest |severity| when several overlap.
func (s *Schedule) Strongest(k Kind) (Fault, bool) {
	var best Fault
	found := false
	for i, f := range s.plan.Faults {
		if !s.active[i] || f.Kind != k {
			continue
		}
		if !found || math.Abs(f.Severity) > math.Abs(best.Severity) {
			best = f
		}
		found = true
	}
	return best, found
}

// Hits reports whether an active fault of kind k targets the given server
// or rack index, directly or through the every-target value -1
// (AllServers, AllRacks).
func (s *Schedule) Hits(k Kind, target int) bool {
	for i, f := range s.plan.Faults {
		if s.active[i] && f.Kind == k && (f.Server == target || f.Server == AllRacks) {
			return true
		}
	}
	return false
}

// Injector is the per-run fault state machine. Its Schedule tracks which
// faults are active; it corrupts the measurement stream and reports the
// component-failure state the engine applies to the rack and UPS each
// tick. Not safe for concurrent use; one Injector per run.
type Injector struct {
	Schedule
	dt float64

	// Monitor corruption state.
	lastRaw    float64 // most recent uncorrupted reading (delay source)
	frozen     float64 // held reading while a freeze is active
	haveFrozen bool
	delayBuf   []float64 // ring buffer of past readings for MeasurementDelay
	delayN     int       // valid entries in delayBuf
	delayHead  int
}

// NewInjector builds the state machine for a validated plan and tick size.
// It panics on an invalid plan or non-positive dt: the engine validates the
// scenario (including the plan) before constructing the injector.
func NewInjector(p Plan, dt float64) *Injector {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("faults: NewInjector on invalid plan: %v", err))
	}
	for _, f := range p.Faults {
		if f.Kind.Scope() == ScopeLink {
			// The injector is rack-local; a link fault reaching it would be
			// silently inert. Scenario validation rejects these earlier with
			// a descriptive error — this is the structural backstop.
			panic(fmt.Sprintf("faults: NewInjector handed link-scoped fault %s; link faults drive the cluster link transport, not a rack injector", f.Kind))
		}
	}
	if dt <= 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("faults: NewInjector with dt %g", dt))
	}
	if p.OnsetJitterS > 0 {
		// Copy before jittering: the caller's plan (often shared across
		// racks of a sweep) must stay untouched.
		jittered := make([]Fault, len(p.Faults))
		copy(jittered, p.Faults)
		rng := rand.New(rand.NewSource(p.Seed))
		for i := range jittered {
			jittered[i].OnsetS += rng.Float64() * p.OnsetJitterS
		}
		p.Faults = jittered
	}
	return &Injector{Schedule: NewSchedule(p), dt: dt}
}

// AnyFaultActive reports whether any scheduled fault is currently active.
// The event engine only opens quiescent spans while the injector is fully
// inactive, so the per-tick corruption pipeline is provably the identity.
func (in *Injector) AnyFaultActive() bool {
	for _, a := range in.active {
		if a {
			return true
		}
	}
	return false
}

// StableTicks returns a conservative count of upcoming ticks of size dt,
// starting at time now0, during which no fault's active state can change:
// every scheduled onset and clear lies strictly beyond the returned horizon.
// The result is capped at maxTicks. This is the event engine's
// fault-transition barrier.
func (in *Injector) StableTicks(now0, dt float64, maxTicks int) int {
	min := maxTicks
	for i, f := range in.plan.Faults {
		var limit float64
		switch {
		case in.active[i]:
			limit = f.OnsetS + f.DurationS // next transition: the clear
		case now0 >= f.OnsetS+f.DurationS:
			continue // onset and clear both in the past
		default:
			// The onset is the next transition. It may already be at or
			// before now0 (the injector applies it on the *next* Step), in
			// which case the horizon below clamps to zero ticks.
			limit = f.OnsetS
		}
		// Ticks k = 1..n probe times now0+k·dt; the last safe tick must
		// stay strictly below the transition, and the −1 absorbs the
		// boundary tick itself.
		n := int((limit-now0)/dt) - 1
		if n < min {
			min = n
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// AdvanceConstant replays n ticks of the no-fault FilterMeasurement path
// with a constant raw reading: the delay ring buffer absorbs n pushes of
// raw, the freeze latch clears, and lastRaw becomes raw — bit-identical to
// n FilterMeasurement(raw) calls with no fault active, in O(buffer) instead
// of O(n). The event engine uses it to keep the monitor-corruption state
// exact across a fast-forwarded quiescent span.
func (in *Injector) AdvanceConstant(raw float64, n int) {
	if n <= 0 {
		return
	}
	const maxDelaySteps = 128
	if in.delayBuf == nil {
		in.delayBuf = make([]float64, maxDelaySteps)
	}
	if n >= len(in.delayBuf) {
		for i := range in.delayBuf {
			in.delayBuf[i] = raw
		}
		in.delayN = len(in.delayBuf)
	} else {
		for k := 0; k < n; k++ {
			in.delayBuf[(in.delayHead+k)%len(in.delayBuf)] = raw
		}
		if in.delayN += n; in.delayN > len(in.delayBuf) {
			in.delayN = len(in.delayBuf)
		}
	}
	in.delayHead = (in.delayHead + n) % len(in.delayBuf)
	in.haveFrozen = false
	in.lastRaw = raw
}

// FilterMeasurement corrupts one rack power-monitor reading according to the
// active monitor faults. Must be called exactly once per tick with the raw
// reading (it is stateful: the delay buffer and freeze value advance).
func (in *Injector) FilterMeasurement(raw float64) float64 {
	// Delay first: the delayed stream is what downstream faults corrupt.
	out := raw
	if f, ok := in.Strongest(MeasurementDelay); ok {
		steps := int(math.Round(f.Severity / in.dt))
		if steps < 1 {
			steps = 1
		}
		out = in.delayed(raw, steps)
	} else {
		in.pushDelay(raw)
	}
	// Freeze holds the last delivered value from before the onset.
	if _, ok := in.Strongest(MonitorFreeze); ok {
		if !in.haveFrozen {
			in.frozen = in.lastRaw
			in.haveFrozen = true
		}
		out = in.frozen
	} else {
		in.haveFrozen = false
	}
	if f, ok := in.Strongest(MonitorBias); ok {
		out *= 1 + f.Severity
	}
	if _, ok := in.Strongest(MonitorDropout); ok {
		out = math.NaN()
	}
	in.lastRaw = raw
	return out
}

// pushDelay records a reading into the delay ring buffer.
func (in *Injector) pushDelay(raw float64) {
	const maxDelaySteps = 128
	if in.delayBuf == nil {
		in.delayBuf = make([]float64, maxDelaySteps)
	}
	in.delayBuf[in.delayHead] = raw
	in.delayHead = (in.delayHead + 1) % len(in.delayBuf)
	if in.delayN < len(in.delayBuf) {
		in.delayN++
	}
}

// delayed records raw and returns the reading from `steps` ticks ago (the
// oldest available during the fault's warm-up).
func (in *Injector) delayed(raw float64, steps int) float64 {
	in.pushDelay(raw)
	if steps > len(in.delayBuf)-1 {
		steps = len(in.delayBuf) - 1
	}
	if steps >= in.delayN {
		steps = in.delayN - 1
	}
	idx := (in.delayHead - 1 - steps + 2*len(in.delayBuf)) % len(in.delayBuf)
	return in.delayBuf[idx]
}

// FilterSoC corrupts the UPS state-of-charge reading and the derived
// depleted indicator according to an active gauge-bias fault.
func (in *Injector) FilterSoC(soc float64, depleted bool) (float64, bool) {
	f, ok := in.Strongest(UPSGaugeBias)
	if !ok {
		return soc, depleted
	}
	biased := soc + f.Severity
	if biased < 0 {
		biased = 0
	} else if biased > 1 {
		biased = 1
	}
	// The depleted indicator is derived from the same gauge.
	return biased, biased <= 0
}

// UPSPathFailed reports whether the battery discharge path is currently open.
func (in *Injector) UPSPathFailed() bool {
	_, ok := in.Strongest(UPSPathFailure)
	return ok
}

// ServerState is the per-server component-failure state the engine applies
// to the rack each tick.
type ServerState struct {
	Offline bool
	Stuck   bool
	// LagFrac is the fraction of a commanded frequency move the actuator
	// applies per write (0 = no lag fault).
	LagFrac float64
}

// ServerStates returns the failure state of every server index in
// [0, numServers). Per-server faults with Server == AllServers apply to all.
func (in *Injector) ServerStates(numServers int) []ServerState {
	out := make([]ServerState, numServers)
	for i, f := range in.plan.Faults {
		if !in.active[i] || !f.Kind.perServer() {
			continue
		}
		lo, hi := f.Server, f.Server+1
		if f.Server == AllServers {
			lo, hi = 0, numServers
		}
		if lo < 0 || lo >= numServers {
			continue
		}
		if hi > numServers {
			hi = numServers
		}
		for s := lo; s < hi; s++ {
			switch f.Kind {
			case ServerCrash:
				out[s].Offline = true
			case ActuatorStuck:
				out[s].Stuck = true
			case ActuatorLag:
				out[s].LagFrac = f.Severity
			}
		}
	}
	return out
}

// ErrParse reports a malformed fault spec string.
var ErrParse = errors.New("faults: bad fault spec")

// Parse builds a fault from the CLI spec "kind:onset:duration[:severity[:server]]",
// e.g. "monitor-freeze:30:300" or "actuator-stuck:60:400:0:3". Each numeric
// field must parse whole: "30s" is not an onset and "3.7" is not a server.
func Parse(spec string) (Fault, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return Fault{}, fmt.Errorf("%w: %q (want kind:onset:duration[:severity[:server]])", ErrParse, spec)
	}
	f := Fault{Kind: Kind(parts[0])}
	var err error
	if f.OnsetS, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return Fault{}, fmt.Errorf("%w: onset %q", ErrParse, parts[1])
	}
	if f.DurationS, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return Fault{}, fmt.Errorf("%w: duration %q", ErrParse, parts[2])
	}
	if len(parts) > 3 {
		if f.Severity, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return Fault{}, fmt.Errorf("%w: severity %q", ErrParse, parts[3])
		}
	}
	if len(parts) > 4 {
		if f.Server, err = strconv.Atoi(parts[4]); err != nil {
			return Fault{}, fmt.Errorf("%w: server %q", ErrParse, parts[4])
		}
	}
	if err := f.Validate(); err != nil {
		return Fault{}, err
	}
	return f, nil
}

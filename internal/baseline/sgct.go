// Package baseline implements the state-of-the-art comparison policies of
// the paper's evaluation (Section VI-B), derived from the sprinting game of
// Fan et al. [2] with the Cooperative Threshold strategy:
//
//   - SGCT: the sprinting game as-is. It budgets total power at
//     rated × overload degree, waterfills peak frequency onto the
//     highest-utilization cores using the *linear power model estimate*,
//     and uses CB overload as its only power knob — no feedback. Model
//     error makes the actual power exceed the budget, which trips the
//     breaker (paper Fig. 5); after a trip the UPS carries the whole rack.
//   - SGCT-V1: an idealized variant that manages frequencies so the actual
//     total power lands exactly on the budget (infeasible in practice
//     without closed-loop control, as the paper notes — implemented here
//     with an oracle over the true plant), so the breaker never trips. The
//     UPS is a backup source: it discharges only while the CB recovers.
//   - SGCT-V2: SGCT-V1 but sprinting interactive cores with priority over
//     batch cores.
package baseline

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"sprintcon/internal/cpu"
	"sprintcon/internal/rack"
	"sprintcon/internal/sim"
	"sprintcon/internal/telemetry"
)

// Variant selects the baseline behaviour.
type Variant int

const (
	// SGCT is the uncontrolled sprinting game (trips breakers).
	SGCT Variant = iota
	// SGCTV1 is the ideally-clamped variant.
	SGCTV1
	// SGCTV2 is the ideally-clamped, interactive-priority variant.
	SGCTV2
)

// String returns the variant name used in results.
func (v Variant) String() string {
	switch v {
	case SGCT:
		return "SGCT"
	case SGCTV1:
		return "SGCT-V1"
	case SGCTV2:
		return "SGCT-V2"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Policy implements sim.Policy for the SGCT family.
type Policy struct {
	variant Variant

	env *sim.Env
	scn sim.Scenario

	kPerCore  float64
	cSharePer float64
	fmin      float64
	fmax      float64
	fnom      float64 // non-sprint (nominal) frequency: rack fits the rating
	rated     float64
	degree    float64
	overloadS float64
	recoveryS float64

	curPCb float64
	// Telemetry instruments, resolved once in Start (nil-safe no-ops when
	// the run carries no registry). The baselines report through the same
	// metric names as SprintCon where the semantics match, so dashboards
	// and the experiments harness compare policies without translation.
	pcbGauge    *telemetry.Gauge
	thetaGauge  *telemetry.Gauge
	sprintCores *telemetry.Gauge
	// lastSprinted tracks, per core, when it last ran at (near) peak.
	// The cooperative game rotates sprint grants: a core that has waited
	// long accumulates priority, so low-utilization cores are not
	// starved forever (which would break their batch deadlines).
	lastSprinted map[coreKey]float64
	// cores is prioritizedCores' reused result buffer.
	cores []coreRef
	// rec and its sections are the decision-trace record, refilled every
	// traced tick (the sink does not retain it).
	rec      telemetry.Decision
	recAlloc telemetry.AllocDecision
	recUPS   telemetry.UPSDecision
}

// coreKey identifies a core across ticks.
type coreKey struct{ server, core int }

// agingBoostPerSecond converts waiting time into priority, on the same
// scale as utilization (0–1). It must dominate the utilization spread
// *within* a class after a few seconds — otherwise the lowest-utilization
// batch benchmark is evicted every tick and re-admitted only after the
// spread/boost ratio in ticks, an unfair duty cycle that starves it.
const agingBoostPerSecond = 0.05

// sprintThreshold is the Cooperative Threshold of the sprinting game [2]:
// a core whose *demand-equivalent* load (utilization × normalized
// frequency, i.e. independent of how throttled the core currently is)
// falls below this has no sprint demand and runs at the floor frequency.
const sprintThreshold = 0.45

// New returns a baseline policy of the given variant.
func New(v Variant) *Policy {
	return &Policy{variant: v}
}

// Name implements sim.Policy.
func (p *Policy) Name() string { return p.variant.String() }

// Start implements sim.Policy.
func (p *Policy) Start(env *sim.Env, scn sim.Scenario) error {
	if env == nil {
		return errors.New("baseline: nil environment")
	}
	p.env = env
	p.scn = scn

	params := scn.Rack.ServerParams
	co := params.DesignCoeffs(0.9)
	p.kPerCore = co.KWPerGHz
	p.cSharePer = co.CIdleShareW
	p.fmin = params.PStates.Min()
	p.fmax = params.PStates.Max()
	p.rated = scn.Breaker.RatedPower
	// The baselines use the same overload parameters as SprintCon's
	// allocator — the paper keeps degree 1.25, 150 s, 300 s "the same as
	// those in [2]".
	p.degree = 1.25
	p.overloadS = 150
	p.recoveryS = 300
	p.curPCb = p.rated * p.degree
	p.lastSprinted = make(map[coreKey]float64)
	p.pcbGauge = env.Metrics.Gauge("pcb_target_w", "effective circuit-breaker power budget")
	p.thetaGauge = env.Metrics.Gauge("sgct_theta", "sprint extent: cores granted (near-)peak frequency")
	p.sprintCores = env.Metrics.Gauge("sgct_candidate_cores", "cores above the cooperative sprint threshold")

	// Nominal frequency: the power-capped operating point of the rack
	// before sprinting — the linear model's per-core share of the rating.
	nCores := float64(scn.Rack.NumServers * (scn.Rack.InteractiveCoresPerServer + scn.Rack.BatchCoresPerServer))
	idleEst := env.Rack.EstimateIdlePower()
	p.fnom = ((p.rated-idleEst)/nCores - p.cSharePer) / p.kPerCore
	if p.fnom < p.fmin {
		p.fnom = p.fmin
	}
	if p.fnom > p.fmax {
		p.fnom = p.fmax
	}
	return nil
}

// Targets implements sim.TargetReporter: the CB phase budget; the baselines
// maintain no separate batch budget, so NaN is reported for it.
func (p *Policy) Targets(now float64) (float64, float64) {
	return p.pcbPhase(now), math.NaN()
}

// pcbPhase returns the CB budget of the periodic schedule at time now.
func (p *Policy) pcbPhase(now float64) float64 {
	phase := math.Mod(now, p.overloadS+p.recoveryS)
	if phase < p.overloadS {
		return p.rated * p.degree
	}
	return p.rated
}

// Tick implements sim.Policy.
func (p *Policy) Tick(env *sim.Env, snap sim.Snapshot) float64 {
	now := snap.Now
	p.curPCb = p.pcbPhase(now)
	budget := p.rated * p.degree // total sprint budget, held constant [2]

	cores := p.prioritizedCores(env, now)
	var theta float64
	if p.variant == SGCT {
		// The game trusts its linear model: solve the estimated total
		// for the sprint extent. Model error is what trips the CB.
		// Non-candidate cores sit at the nominal frequency.
		nNonCandidates := float64(len(env.Rack.InteractiveCores())+len(env.Rack.BatchCores())) - float64(len(cores))
		base := env.Rack.EstimateIdlePower() +
			nNonCandidates*(p.kPerCore*p.fnom+p.cSharePer) +
			float64(len(cores))*(p.kPerCore*p.fnom+p.cSharePer)
		theta = (budget - base) / (p.kPerCore * (p.fmax - p.fnom))
	} else {
		// Ideal management: oracle bisection on the true plant so the
		// actual power lands exactly on the budget.
		theta = p.oracleTheta(env, cores, budget)
	}
	p.applyTheta(env, cores, theta)
	// Cores granted (near-)peak frequency count as sprinted for aging.
	for i, c := range cores {
		if float64(i) < theta {
			p.lastSprinted[coreKey{c.server, c.core}] = now
		}
	}

	var upsReqW float64
	switch p.variant {
	case SGCT:
		// CB overload is the only knob; the UPS kicks in only when the
		// engine routes power through it after a trip.
	default:
		// Backup use: discharge only what exceeds the current CB phase
		// budget (zero during overload phases, total−rated during
		// recovery phases). A small margin keeps measurement lag and
		// duty quantization from parking the breaker a hair above its
		// rating, where its thermal state would never recover.
		const backoffMarginW = 30
		upsReqW = math.Max(0, snap.MeasuredTotalW-(p.curPCb-backoffMarginW))
	}

	p.pcbGauge.Set(p.curPCb)
	p.thetaGauge.Set(theta)
	p.sprintCores.Set(float64(len(cores)))
	if env.Decisions != nil {
		p.recAlloc = telemetry.AllocDecision{
			PCbW:    telemetry.F(p.curPCb),
			PBatchW: telemetry.F(math.NaN()),
			Updated: true, // open-loop schedule recomputed every tick
		}
		p.recUPS = telemetry.UPSDecision{RequestW: upsReqW, SoC: snap.UPSSoC}
		p.rec = telemetry.Decision{
			T:      now,
			Policy: p.Name(),
			// The sprinting game has no degradation ladder; the overload/
			// recovery phase plays the role of a mode in the trace.
			Mode:  p.phaseName(now),
			Alloc: &p.recAlloc,
			UPS:   &p.recUPS,
		}
		env.Decisions.Emit(&p.rec)
	}
	return upsReqW
}

// phaseName labels the point of the periodic overload schedule for traces.
func (p *Policy) phaseName(now float64) string {
	if math.Mod(now, p.overloadS+p.recoveryS) < p.overloadS {
		return "overload"
	}
	return "recovery"
}

// coreRef identifies a prioritized core.
type coreRef struct {
	server, core int
	priority     float64
	interactive  bool
}

// prioritizedCores lists all workload cores in sprint-priority order:
// descending utilization (the demand metric of Section VI-B) plus an aging
// boost, with SGCT-V2 placing interactive cores ahead of batch cores.
func (p *Policy) prioritizedCores(env *sim.Env, now float64) []coreRef {
	cores := p.cores[:0]
	fmax := p.fmax
	for s := 0; s < p.scn.Rack.NumServers; s++ {
		for c := 0; c < p.scn.Rack.ServerParams.Cores; c++ {
			ref := rack.CoreRef{Server: s, Core: c}
			freq, util, cl := env.Rack.Core(ref)
			if cl == cpu.Idle {
				continue
			}
			// Below-threshold cores leave the game: no sprint, nominal
			// frequency. The demand metric is throttle-invariant:
			// interactive utilization scales as f_max/f for a fixed
			// request stream, so demand = util·f/f_max there — except a
			// saturated core, whose queue is building and whose true
			// demand is unknown but high. Batch cores are saturated at
			// any frequency, so demand = util.
			demand := util
			if cl == cpu.Interactive && util < 0.999 {
				demand = util * freq / fmax
			}
			if demand < sprintThreshold {
				env.Rack.SetCoreFreq(ref, p.fnom)
				continue
			}
			waited := now - p.lastSprinted[coreKey{s, c}]
			cores = append(cores, coreRef{
				server:      s,
				core:        c,
				priority:    util + agingBoostPerSecond*waited,
				interactive: cl == cpu.Interactive,
			})
		}
	}
	slices.SortStableFunc(cores, func(a, b coreRef) int {
		if p.variant == SGCTV2 && a.interactive != b.interactive {
			if a.interactive {
				return -1 // interactive first
			}
			return 1
		}
		return cmp.Compare(b.priority, a.priority)
	})
	p.cores = cores
	return cores
}

// applyTheta writes the waterfilling assignment for sprint extent theta:
// the first ⌊theta⌋ cores in priority order run at peak, the next core gets
// the fractional upgrade, the rest run at the nominal frequency.
func (p *Policy) applyTheta(env *sim.Env, cores []coreRef, theta float64) {
	if theta < 0 {
		theta = 0
	}
	if theta > float64(len(cores)) {
		theta = float64(len(cores))
	}
	for i, c := range cores {
		f := p.fnom
		switch {
		case float64(i+1) <= theta:
			f = p.fmax
		case float64(i) < theta:
			f = p.fnom + (theta-float64(i))*(p.fmax-p.fnom)
		}
		// Routed through the rack's actuation path so injected DVFS
		// faults affect the baselines exactly as they do SprintCon.
		env.Rack.SetCoreFreq(rack.CoreRef{Server: c.server, Core: c.core}, f)
	}
}

// oracleTheta bisects the sprint extent so the rack's *true* power equals
// the budget (the idealized open-loop management granted to SGCT-V1/V2).
func (p *Policy) oracleTheta(env *sim.Env, cores []coreRef, budgetW float64) float64 {
	n := float64(len(cores))
	powerAt := func(theta float64) float64 {
		p.applyTheta(env, cores, theta)
		return env.Rack.TruePower()
	}
	if powerAt(n) <= budgetW {
		return n // the workloads do not need the full budget
	}
	lo, hi := 0.0, n
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if powerAt(mid) > budgetW {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

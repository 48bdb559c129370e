package cluster

import (
	"math"
	"testing"

	"sprintcon/internal/sim"
)

// Linked racks are structurally tick-bound: the lock-step loop interleaves
// the coordinator between rack ticks through Runner.Step, and linkedPolicy
// applies an always-active external budget, so the quiescence digest can
// never certify a span. Handing the racks run options that the
// discrete-event core consumes (here its discard-mode event log) must
// therefore degenerate honestly — bit-identical results to the default
// run, zero spans, zero skipped ticks.
func TestLinkedEventEngineDegeneratesToTick(t *testing.T) {
	cfg := linkedConfig()
	cfg.NumRacks = 3
	cfg.FeederBudgetW = 3*cfg.Scenario.Breaker.RatedPower + 0.25*cfg.Scenario.Breaker.RatedPower*2
	cfg.Scenario.DurationS = 400
	cfg.Scenario.BurstDurationS = 400

	base, err := RunLinked(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ev := cfg
	ev.Link.RackOptions = func(rack int) sim.RunOptions {
		return sim.RunOptions{DropEvents: true}
	}
	eres, err := RunLinked(ev)
	if err != nil {
		t.Fatal(err)
	}

	for i := range base.Racks {
		b, e := &base.Racks[i].Series, &eres.Racks[i].Series
		for tk := range b.TotalW {
			if math.Float64bits(b.TotalW[tk]) != math.Float64bits(e.TotalW[tk]) ||
				math.Float64bits(b.CBW[tk]) != math.Float64bits(e.CBW[tk]) ||
				math.Float64bits(b.SoC[tk]) != math.Float64bits(e.SoC[tk]) ||
				math.Float64bits(b.FreqBatch[tk]) != math.Float64bits(e.FreqBatch[tk]) ||
				math.Float64bits(b.PCbW[tk]) != math.Float64bits(e.PCbW[tk]) {
				t.Fatalf("rack %d diverges at tick %d under event-core run options", i, tk)
			}
		}
		if n := len(eres.Racks[i].Events); n != 0 {
			t.Fatalf("rack %d ignored its run options: %d events logged with DropEvents", i, n)
		}
		for _, res := range []*sim.Result{base.Racks[i], eres.Racks[i]} {
			if st := res.Engine; st.Spans != 0 || st.TicksSkipped != 0 {
				t.Fatalf("rack %d fast-forwarded inside a lock-step linked run: %+v", i, st)
			}
		}
		if !clientStatsEqual(base.Clients[i], eres.Clients[i]) {
			t.Fatalf("rack %d link stats diverge: %+v vs %+v", i, base.Clients[i], eres.Clients[i])
		}
	}
	for tk := range base.AggregateW {
		if math.Float64bits(base.AggregateW[tk]) != math.Float64bits(eres.AggregateW[tk]) {
			t.Fatalf("aggregate diverges at tick %d", tk)
		}
	}
	if base.Transport != eres.Transport || base.Coord != eres.Coord {
		t.Fatalf("link accounting diverges:\nbase %+v / %+v\nevent %+v / %+v",
			base.Transport, base.Coord, eres.Transport, eres.Coord)
	}
}

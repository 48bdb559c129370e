// Package hier composes the per-rack SprintCon allocator under row- and
// building-level breakers — the hierarchical shape a production datacenter
// runs: one building feeder supplies several row feeders, each row feeder
// supplies a group of racks, and every level has its own breaker rating.
//
// # Budget waterfall
//
// Allocate turns a building budget into per-row budgets with the same
// tighten-only discipline each row coordinator applies per rack: a child
// level never receives more than its parent can fund, and the sum of the
// budgets granted to the children of any node never exceeds that node's
// own budget. Budgets move in whole overload-bonus quanta
// (rated·(degree−1), one rack's overload surcharge), because that is the
// granularity at which the coordinator's slot packing can actually spend
// them: a row's budget N·rated + K·bonus funds exactly K concurrent
// overloads.
//
// Every row is first granted its minimum packing ⌈N/slots⌉ — the smallest
// slot capacity that lets the row coordinator give each of its N racks an
// overload slot among the cycle's ⌊cycle/overload⌋ windows. Remaining
// building headroom is distributed round-robin, one bonus at a time, up to
// each row's own breaker rating. A building that cannot fund every row's
// minimum packing is a configuration error, reported by Allocate.
//
// # Runtime
//
// RunLinked is the only linked entry point. Each row runs its
// own lock-step loop — a row coordinator packing the row's granted slot
// capacity, a lossy transport (package link), and lease-based clients per
// rack — with the row's granted budget as its feeder budget. The rows run
// on min(rows, GOMAXPROCS) workers that share one queue of rows, each
// advancing the row it takes by one round (one tick the first time, a
// fixed number of ticks after that), so a run never has more simulation
// goroutines than Ps and every row serves its first decision within the
// first round. Partitions therefore degrade one subtree: a row whose network fails falls back to
// rated-power autonomy (the degraded ladder of DESIGN.md §12) while the
// other rows keep sprinting on their leases, and the building aggregate
// stays inside its breaker. Every level is scored by a shadow breaker
// (ShadowTrips) and an exceedance fraction with the same FeederTolerance
// slack. A single feeder group — experiment E19, sprintsim -link, the
// partitionstorm example — is a one-row building, and E20's flat strawman
// is a one-row building rated at the whole building budget.
//
// RunSweep is the uncoordinated counterpart, and the only static fleet
// driver: experiment E12, sprintsim -racks without -link and capacity
// studies at thousands of racks. Each row staggers its racks' phase
// offsets evenly across the cycle, rack j at j·cycle/N, or runs them in
// phase when its slot capacity funds every rack's overload (the linked
// coordinator still bootstraps fill-first slots). A sweep executes on the
// sim worker pool sharded row by row (sim.RunManyOrdered), where each
// rack's sim.RunWith fast-forwards quiescent spans. Results are
// bit-identical between serial and parallel execution.
//
// Rack seeds are offset by the rack's global index across the whole
// building, so every rack sees distinct traffic, noise and fault timings,
// and a flat one-row building over the same racks is directly comparable
// (experiment E20).
package hier

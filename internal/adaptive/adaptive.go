// Package adaptive integrates the greedy vertex-migration heuristic of
// internal/core into the BSP engine as the paper's background partitioning
// application (Section 3). It implements bsp.Repartitioner.
//
// The implementation follows the paper's two system protocols:
//
//   - Deferred vertex migration: requests returned from Plan enter the
//     engine's two-barrier window — addressing changes immediately (peers
//     are "notified" for superstep t+1), the physical move completes one
//     barrier later, and no message is lost (engine-side, paper Fig. 3).
//
//   - Worker-to-worker capacity messaging: migration quotas at superstep t
//     are computed from the predicted free capacities broadcast at the end
//     of superstep t−1 (C^{t+1}(i) = C^t(i) − V_o + V_i), never from
//     current global state — respecting Pregel's one-superstep messaging
//     delay. The service keeps that delayed view in knownFree.
//
// Decisions themselves use only vertex-local information: the partitions
// of a vertex's own neighbours (available locally because every worker
// hears migration notices for vertices adjacent to its own) and the
// delayed capacity vector. The rule is core.Decider, the one decide→grant
// every internal/core step path runs too: the service hands it the
// delayed free capacities (scaled down on hot partitions) and the
// hot-spot drain odds, and keeps only the BSP side — the capacity broadcast, the frontier wakes and the
// conversion of granted moves into migration requests.
//
// Randomness: vertex v's draws in superstep t (the willingness coin, the
// hot-spot drain coin and the tie shuffle) are core's keyed per-vertex
// stream of (Seed, t, v), so they depend on no other vertex and on no
// visiting order.
//
// Program independence: with HotSpotAware off, a Plan pass reads only the
// topology, the assignment and the delayed capacity view — never the
// vertex values or message traffic of the program running above it. Two
// engines running different vertex programs over the same seed, initial
// assignment and mutation stream therefore receive byte-identical
// migration plans (pinned by TestAnalyticsDoNotPerturbPartitionerRNG in
// internal/apps). HotSpotAware trades this away deliberately: it folds
// measured per-partition compute times into the advertised capacities,
// coupling placement to the workload.
package adaptive

import (
	"fmt"
	"math"

	"xdgp/internal/activeset"
	"xdgp/internal/bsp"
	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Config parameterises the background partitioner.
type Config struct {
	// S is the willingness to move (Section 2.3); the paper uses 0.5.
	S float64
	// CapacityFactor sizes partition capacities relative to the balanced
	// load (the paper's experiments use 1.10).
	CapacityFactor float64
	// HotSpotAware enables the paper's second future-work extension
	// (Section 6): partitions that measured hotter than the mean in the
	// previous superstep advertise proportionally less free capacity, so
	// migration pressure drains towards cool workers.
	HotSpotAware bool
	// Incremental enables the active-set scheduler: a Plan pass examines
	// only vertices whose decision inputs could have changed — those the
	// barrier's mutation batch touched, neighbours of granted movers,
	// vertices that have not finished deciding, parked requesters whose
	// destination's quota turned positive and, with HotSpotAware, every
	// vertex of a draining partition (see prepareFrontier). Steady-state
	// Plan cost is then proportional to churn instead of |V|. Off by
	// default (full sweep, the paper-exact reference).
	Incremental bool
	// WorkloadWeight enables the workload term of the migration
	// objective: each member of Γ(v) votes for its partition with weight
	// 1 + WorkloadWeight·heat(w)/max(heat) instead of 1, where heat is
	// the frozen per-vertex read-heat view installed via SetHeat. Zero
	// (the default) keeps the paper-exact topology-only objective,
	// byte-identical plans included. The vote is core.Scorer's; see
	// internal/core/heat.go for the scoring model.
	WorkloadWeight float64
	// Seed drives the move coins and tie-breaks.
	Seed int64
}

// DefaultConfig mirrors the paper's standard setting.
func DefaultConfig(seed int64) Config {
	return Config{S: 0.5, CapacityFactor: 1.10, Seed: seed}
}

// Service is the adaptive repartitioning background application.
type Service struct {
	cfg Config

	// knownFree is the delayed capacity knowledge: free slots per
	// partition as of the previous barrier's capacity broadcast.
	knownFree []int

	// d is core's decide→grant rule; scorer and dec are its one shard's
	// scratch, free and drain its per-pass inputs.
	d      core.Decider
	scorer *core.Scorer
	dec    core.ShardDecision
	free   []int
	drain  []float64

	// Workload term (Config.WorkloadWeight, heat.go): the frozen heat
	// view (also installed in the scorer) and whether the next Plan
	// still owes the frontier a hot-neighbourhood wake.
	heat      []float32
	heatDirty bool

	// active holds the frontier/parking bookkeeping shared with
	// internal/core (Config.Incremental). It is built, with every live
	// vertex scheduled, when the first View arrives.
	active *activeset.Set

	// Totals for reporting.
	totalRequested int
	totalGranted   int
	totalExamined  int
}

// New creates the service. It returns an error for invalid configuration.
func New(cfg Config) (*Service, error) {
	// Written to fail on NaN; the open-ended checks also reject +Inf.
	if !(cfg.S >= 0 && cfg.S <= 1) {
		return nil, fmt.Errorf("adaptive: S must be in [0,1], got %g", cfg.S)
	}
	if !(cfg.CapacityFactor >= 1.0) || math.IsInf(cfg.CapacityFactor, 1) {
		return nil, fmt.Errorf("adaptive: CapacityFactor must be finite and ≥ 1.0, got %g", cfg.CapacityFactor)
	}
	if !(cfg.WorkloadWeight >= 0) || math.IsInf(cfg.WorkloadWeight, 1) {
		return nil, fmt.Errorf("adaptive: WorkloadWeight must be finite and ≥ 0, got %g", cfg.WorkloadWeight)
	}
	return &Service{
		cfg:    cfg,
		d:      core.Decider{S: cfg.S, Seed: cfg.Seed, Incremental: cfg.Incremental},
		scorer: core.NewScorer(),
	}, nil
}

// TotalRequested returns how many migration requests vertices have made
// (post-coin, pre-quota) over the service's lifetime.
func (s *Service) TotalRequested() int { return s.totalRequested }

// TotalGranted returns how many requests passed quota admission.
func (s *Service) TotalGranted() int { return s.totalGranted }

// TotalExamined returns how many per-vertex decisions the service has
// evaluated over its lifetime: |V| per pass on a full sweep, the active
// set when incremental — the denominator of the scheduler's win.
func (s *Service) TotalExamined() int { return s.totalExamined }

// DirtyCount returns the current size of the active set (0 when the
// scheduler is idle or Incremental is off).
func (s *Service) DirtyCount() int {
	if s.active == nil {
		return 0
	}
	return s.active.Len()
}

// Plan implements bsp.Repartitioner. It runs one decide→grant pass of
// core.Decider over the delayed capacity view and returns the granted
// migration requests.
func (s *Service) Plan(view *bsp.View) []bsp.MigrationRequest {
	g := view.Graph()
	k := view.K()
	if s.cfg.Incremental {
		if s.active == nil {
			// First pass: every live vertex is scheduled.
			s.active = activeset.New(k)
			s.active.Grow(g.NumSlots())
			g.ForEachVertex(s.active.Mark)
		}
		s.active.Grow(g.NumSlots())
		for _, v := range view.MutatedVertices() {
			if g.Has(v) {
				s.active.Mark(v)
			}
		}
	}
	if k < 2 {
		return nil
	}
	addr := view.Addr()
	caps := partition.UniformCapacities(g.NumVertices(), k, s.cfg.CapacityFactor)
	if s.cfg.Incremental {
		s.wakeHotNeighborhoods(g)
	}

	// Capacity knowledge: the broadcast from the previous barrier. On the
	// very first run the loading phase's broadcast equals current state.
	sizes := addr.Sizes()
	if len(s.knownFree) != k {
		s.knownFree = make([]int, k)
		for j := 0; j < k; j++ {
			s.knownFree[j] = caps[j] - sizes[j]
		}
		s.free = make([]int, k)
		s.drain = make([]float64, k)
	}

	// Quotas come from the delayed capacity view. With hot-spot
	// awareness, a partition measured hotter than the mean advertises
	// proportionally less free capacity, and its fractional overload is
	// the odds that a vertex preferring to stay drains anyway — load
	// balancing traded against locality, the point of the extension.
	var costs []float64
	if s.cfg.HotSpotAware {
		costs = view.WorkerCosts()
	}
	meanCost := 0.0
	if len(costs) == k {
		for _, c := range costs {
			meanCost += c
		}
		meanCost /= float64(k)
	}
	s.d.Drain = nil
	for j := 0; j < k; j++ {
		free := max(s.knownFree[j], 0)
		s.drain[j] = 0
		if len(costs) == k && meanCost > 0 && costs[j] > meanCost {
			free = int(float64(free) * meanCost / costs[j])
			if h := costs[j]/meanCost - 1; h > 0 {
				s.drain[j] = h
				s.d.Drain = s.drain
			}
		}
		s.free[j] = free
	}
	s.d.Begin(g, addr, view.Superstep(), s.free)

	var frontier []graph.VertexID
	if s.cfg.Incremental {
		frontier = s.prepareFrontier(g, addr)
	}
	s.d.Decide(s.scorer, &s.dec, 0, 1, frontier)
	moves := s.d.Grant([]*core.ShardDecision{&s.dec}, s.active)
	s.totalExamined += s.dec.Examined
	s.totalRequested += s.dec.Requested
	s.totalGranted += len(moves)

	// Broadcast predicted capacities for the next superstep:
	// C^{t+1}(i) = C^t(i) − V_in + V_out applied to the free view. When
	// incremental, the engine rewrites the addressing of every granted
	// vertex at this barrier, so the movers' neighbours see new Γ-counts
	// on the next pass: re-wake them (and the mover, which re-settles).
	// Departures also free capacity in the mover's source partition, so
	// vertices parked on it get another chance.
	for j := 0; j < k; j++ {
		s.knownFree[j] = caps[j] - sizes[j]
	}
	reqs := make([]bsp.MigrationRequest, len(moves))
	for i, mv := range moves {
		reqs[i] = bsp.MigrationRequest{V: mv.V, To: mv.To}
		s.knownFree[mv.To]--
		s.knownFree[mv.From]++
		if s.cfg.Incremental {
			s.active.MarkNeighborhood(g, mv.V)
			s.active.UnparkDest(mv.From)
		}
	}
	return reqs
}

// prepareFrontier returns the sorted frontier of an incremental pass.
// Besides the barrier's mutation notices (collected in Plan) and the
// movers' wakes, two events schedule vertices here: any destination
// whose quota is positive unparks its waiters — the capacity-shift event
// hard-parked requesters wait on, covering graph growth, migration
// departures and hot-spot scaling alike, since the delayed capacity view
// is re-derived every pass; and every vertex of a draining partition is
// scheduled, since load pressure is global and the drain cannot be
// frontier-local.
func (s *Service) prepareFrontier(g *graph.Graph, addr *partition.Assignment) []graph.VertexID {
	for j := range s.free {
		if s.d.Quota(partition.ID(j)) > 0 {
			s.active.UnparkDest(partition.ID(j))
		}
	}
	if s.d.Drain != nil {
		g.ForEachVertex(func(v graph.VertexID) {
			if s.drain[addr.Of(v)] > 0 {
				s.active.Mark(v)
			}
		})
	}
	return s.active.Prepare(g.Has)
}

var _ bsp.Repartitioner = (*Service)(nil)

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
// delayed capacity vector. The vote over those partitions is
// core.Scorer, the one scorer every internal/core execution path uses
// too; what is the service's own is the delayed capacity view, the
// unit-weight quota claim against it and the hot-spot drain, which asks
// the scorer for its drain form (the best partition other than the
// current one).
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
	// Interval runs the migration decision every n supersteps (1 = every
	// superstep, the paper's continuous mode).
	Interval int
	// HotSpotAware enables the paper's second future-work extension
	// (Section 6): partitions that measured hotter than the mean in the
	// previous superstep advertise proportionally less free capacity, so
	// migration pressure drains towards cool workers.
	HotSpotAware bool
	// Incremental enables the active-set scheduler: a Plan pass examines
	// only vertices whose decision inputs could have changed — vertices
	// the barrier's mutation batch touched (View.MutatedVertices),
	// neighbours of vertices the service migrated (their Γ-counts shift
	// when the addressing changes), vertices that have not finished
	// deciding (failed the S coin, denied a quota that in-pass
	// competition exhausted, or still inside the deferred-migration
	// window), and — with HotSpotAware — every vertex of a partition
	// measuring hotter than the mean, since the hot-spot drain is driven
	// by load, not topology. Requesters every advertised quota column
	// rejects outright are parked per destination and re-woken when that
	// column turns positive (the delayed capacity view is re-derived
	// every pass, so graph growth, departures and hot-spot relaxation
	// all surface there). Steady-state Plan cost is proportional to
	// churn instead of |V|. Off by default (full sweep, the paper-exact
	// reference).
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
	return Config{S: 0.5, CapacityFactor: 1.10, Interval: 1, Seed: seed}
}

// Service is the adaptive repartitioning background application.
type Service struct {
	cfg Config

	// knownFree is the delayed capacity knowledge: free slots per
	// partition as of the previous barrier's capacity broadcast.
	knownFree []int
	booted    bool

	// scorer is core's decision rule; quota is per-pass scratch.
	scorer *core.Scorer
	quota  [][]int

	// Workload term (Config.WorkloadWeight, heat.go): the frozen heat
	// view (also installed in the scorer) and whether the next Plan
	// still owes the frontier a hot-neighbourhood wake.
	heat      []float32
	heatDirty bool

	// Active-set scheduler state (Config.Incremental): active holds the
	// frontier/parking bookkeeping shared with internal/core, colQuota
	// the planning-pass per-pair quota by destination column (the
	// competition-free admission bound parking decisions test against).
	// seeded flips after the first Plan populates the frontier with
	// every live vertex.
	active   *activeset.Set
	colQuota []int
	seeded   bool

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
	if cfg.Interval < 1 {
		cfg.Interval = 1
	}
	return &Service{
		cfg:    cfg,
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

// ensureActive lazily builds the scheduler state (k is only known once a
// View arrives) and sizes it to the engine's vertex table.
func (s *Service) ensureActive(k, slots int) {
	if s.active == nil {
		s.active = activeset.New(k)
		s.colQuota = make([]int, k)
	}
	s.active.Grow(slots)
}

// Plan implements bsp.Repartitioner. It runs each worker's local decision
// pass and returns the granted migration requests.
func (s *Service) Plan(view *bsp.View) []bsp.MigrationRequest {
	g := view.Graph()
	if s.cfg.Incremental {
		// Collect this barrier's mutation notices even on supersteps the
		// Interval skips — the engine resets them every superstep, and a
		// wake lost here would never be re-delivered.
		s.ensureActive(view.K(), g.NumSlots())
		for _, v := range view.MutatedVertices() {
			if g.Has(v) {
				s.active.Mark(v)
			}
		}
	}
	if view.Superstep()%s.cfg.Interval != 0 {
		return nil
	}
	k := view.K()
	if k < 2 {
		return nil
	}
	addr := view.Addr()
	caps := partition.UniformCapacities(g.NumVertices(), k, s.cfg.CapacityFactor)

	if len(s.quota) != k {
		s.quota = make([][]int, k)
		for i := range s.quota {
			s.quota[i] = make([]int, k)
		}
	}
	if s.cfg.Incremental {
		s.wakeHotNeighborhoods(g)
	}

	// Capacity knowledge: the broadcast from the previous barrier. On the
	// very first run the loading phase's broadcast equals current state.
	sizes := addr.Sizes()
	if !s.booted || len(s.knownFree) != k {
		s.knownFree = make([]int, k)
		for j := 0; j < k; j++ {
			s.knownFree[j] = caps[j] - sizes[j]
		}
		s.booted = true
	}

	// Quotas from the delayed capacity view: Q(i,j) = ⌊free(j)/(k−1)⌋.
	// With hot-spot awareness, partitions measured hotter than the mean
	// advertise proportionally less free capacity.
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
	for j := 0; j < k; j++ {
		free := s.knownFree[j]
		if free < 0 {
			free = 0
		}
		if len(costs) == k && meanCost > 0 && costs[j] > meanCost {
			free = int(float64(free) * meanCost / costs[j])
		}
		q := free / (k - 1)
		for i := 0; i < k; i++ {
			s.quota[i][j] = q
		}
		if s.colQuota != nil {
			s.colQuota[j] = q
		}
	}

	// Hotness per partition: fractional overload vs the mean measured
	// cost. A vertex on an overloaded partition will consider leaving
	// even when staying is locally optimal for the cut — load balancing
	// traded against locality, the point of the extension.
	hotness := make([]float64, k)
	if len(costs) == k && meanCost > 0 {
		for j := 0; j < k; j++ {
			if h := costs[j]/meanCost - 1; h > 0 {
				hotness[j] = h
			}
		}
	}

	var reqs []bsp.MigrationRequest
	key := core.IterationDraws(s.cfg.Seed, view.Superstep())
	granted := make([]int, k)  // inbound grants per partition
	departed := make([]int, k) // outbound grants per partition

	// decide evaluates one vertex and reports whether an incremental
	// schedule must keep it on the frontier: vertices that have not
	// finished deciding (inside the migration window, failed the S coin,
	// or denied a quota that in-pass competition exhausted) stay;
	// vertices that settled or migrated leave (a mover's wake re-marks
	// its neighbourhood below), and hard-denied requesters — every
	// tied-best destination advertising zero quota before any competitor
	// claimed it — park until that capacity shifts (planIncremental
	// unparks every destination whose column quota turns positive).
	decide := func(v graph.VertexID) (keep bool) {
		s.totalExamined++
		cur := addr.Of(v)
		if cur == partition.None {
			return false
		}
		if view.Migrating(v) {
			return true // mid-window: revisit once the move completes
		}
		r := key.Vertex(v)
		if s.cfg.S < 1 && r.Float64() >= s.cfg.S {
			return true // unwilling this pass: stays scheduled
		}
		best := s.scorer.Best(g, addr, v, cur)
		if best == nil {
			if hotness[cur] == 0 || r.Float64() >= hotness[cur] {
				// Settled. While cur stays hot the hot-spot wake below
				// re-schedules the whole partition, so dropping here is
				// safe even when only the drain coin declined.
				return false
			}
			// Hot-spot drain: staying is locally optimal for the cut,
			// but the partition is overloaded — fall back to the best
			// destinations among the other partitions.
			best = s.scorer.BestOther(g, addr, v, cur)
			if best == nil {
				return false
			}
		}
		s.totalRequested++
		r.Shuffle(best)
		for _, dst := range best {
			if s.quota[cur][dst] > 0 {
				s.quota[cur][dst]--
				reqs = append(reqs, bsp.MigrationRequest{V: v, To: dst})
				granted[dst]++
				departed[cur]++
				s.totalGranted++
				return false // mover: its wake re-marks the neighbourhood
			}
		}
		if s.active != nil {
			hard := true
			for _, dst := range best {
				if s.colQuota[dst] > 0 {
					hard = false
					break
				}
			}
			if hard {
				s.active.Park(v, best)
				return false
			}
		}
		return true // competition-denied: the odds change next pass
	}

	if !s.cfg.Incremental {
		g.ForEachVertex(func(v graph.VertexID) { decide(v) })
	} else {
		s.planIncremental(g, addr, hotness, decide)
	}

	if s.cfg.Incremental {
		// The engine rewrites the addressing of every granted vertex at
		// this barrier, so the movers' neighbours see new Γ-counts on the
		// next pass: re-wake them (and the mover, which re-settles).
		// Departures also free capacity in the mover's source partition,
		// so vertices parked on it get another chance.
		for _, r := range reqs {
			s.active.MarkNeighborhood(g, r.V)
		}
		for j := 0; j < k; j++ {
			if departed[j] > 0 {
				s.active.UnparkDest(partition.ID(j))
			}
		}
	}

	// Broadcast predicted capacities for the next superstep:
	// C^{t+1}(i) = C^t(i) − V_in + V_out applied to the free view.
	for j := 0; j < k; j++ {
		s.knownFree[j] = caps[j] - (sizes[j] + granted[j] - departed[j])
	}
	return reqs
}

// planIncremental runs the decision pass over the active set only. The
// frontier is seeded with every live vertex on the first pass and woken
// by: the barrier's mutation notices (collected in Plan); any
// destination whose column quota turned positive — the capacity-shift
// event hard-parked requesters wait on, covering graph growth, migration
// departures and hot-spot scaling alike, since the delayed capacity view
// is re-derived every pass; and — when the hot-spot extension measures
// an overloaded partition — every vertex of that partition (load
// pressure is global, so the drain cannot be frontier-local). The
// frontier is drained in ascending vertex-ID order, the order the
// quota claims are made in. decide's verdict keeps a vertex scheduled,
// settles it, or (for hard denials) parks it inside decide itself.
func (s *Service) planIncremental(g *graph.Graph, addr *partition.Assignment, hotness []float64, decide func(graph.VertexID) bool) {
	if !s.seeded {
		g.ForEachVertex(s.active.Mark)
		s.seeded = true
	}
	for j, q := range s.colQuota {
		if q > 0 {
			s.active.UnparkDest(partition.ID(j))
		}
	}
	anyHot := false
	for _, h := range hotness {
		if h > 0 {
			anyHot = true
			break
		}
	}
	if anyHot {
		g.ForEachVertex(func(v graph.VertexID) {
			if p := addr.Of(v); p != partition.None && hotness[p] > 0 {
				s.active.Mark(v)
			}
		})
	}

	for _, v := range s.active.Prepare(g.Has) {
		if decide(v) {
			s.active.Keep(v)
		} else {
			s.active.Unschedule(v)
		}
	}
	s.active.Commit()
}

var _ bsp.Repartitioner = (*Service)(nil)

// Package core implements the paper's primary contribution (Section 2):
// a decentralised, iterative, greedy vertex-migration heuristic that adapts
// a k-way graph partitioning to dynamic structural change using only local
// per-vertex information.
//
// Every iteration, each vertex — with probability S, the "willingness to
// move" that breaks neighbour-chasing symmetry (Section 2.3) — inspects the
// partitions of its neighbourhood Γ(v) = {v} ∪ N(v) and requests migration
// to a partition holding the most neighbours, preferring to stay when the
// current partition is among the best. Per-pair migration quotas
// Q(i,j) = C(j)/(k−1), derived worst-case from the free capacities known at
// the start of the iteration (Section 2.2), keep partitions below their
// capacity without any coordination. Granted moves are applied
// simultaneously at the end of the iteration, matching the BSP semantics of
// the system implementation in internal/bsp.
//
// This package is the simulation form used by the paper's quality
// experiments (Figures 1, 4, 5, 6) and by the daemon; internal/adaptive
// runs the same rule, Decider (decide.go), inside the Pregel-like engine
// for the system experiments (Figures 7, 8, 9).
package core

import (
	"fmt"
	"math"
	"runtime"

	"xdgp/internal/activeset"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Config parameterises the heuristic. The zero value is invalid; use
// DefaultConfig and adjust.
type Config struct {
	// K is the number of partitions.
	K int
	// CapacityFactor sizes each partition's capacity as
	// ceil(|V|/K × CapacityFactor); the paper's experiments use 1.10
	// (110 % of the balanced load). Capacities are recomputed whenever the
	// vertex count changes, so a dynamic graph keeps proportional slack.
	CapacityFactor float64
	// S is the willingness to move: the per-iteration probability that a
	// vertex evaluates migration at all (Section 2.3). 0 < S ≤ 1; the
	// paper recommends 0.5.
	S float64
	// ConvergenceWindow is the number of consecutive zero-migration
	// iterations required to declare convergence; the paper uses 30.
	ConvergenceWindow int
	// MaxIterations bounds Run as a safety net.
	MaxIterations int
	// Seed drives every random choice (move coins, tie-breaks): vertex
	// v's draws in iteration t are a function of (Seed, t, v) alone (see
	// draw.go).
	Seed int64
	// Parallelism is the number of shards the per-iteration decide phase
	// is split across, one goroutine each; 1 decides inline with no
	// goroutine, and 0 picks runtime.GOMAXPROCS(0). It changes only the
	// wall-clock time: placements are identical for every shard count.
	Parallelism int
	// Incremental enables the active-set (frontier) scheduler: an
	// iteration re-examines only vertices whose decision inputs could
	// have changed — vertices touched by mutations (and their
	// neighbourhoods), neighbours of granted movers, and vertices that
	// have not finished deciding (failed the S coin or were quota-denied).
	// Steady-state iteration cost becomes proportional to churn instead
	// of |V|. Off by default: the full sweep re-examines every vertex
	// every iteration, as the paper describes. Runs are deterministic per
	// (Seed, Incremental). The two schedules draw the same keyed coins,
	// so they usually place identically, but they may differ where the
	// frontier misses a wake (the heat fold's rescaling is one known
	// case); quality and every capacity/quota invariant are preserved
	// (see incremental_test.go).
	Incremental bool
	// RecordEvery controls how often per-iteration cut statistics are
	// computed: every n iterations (n ≥ 1), or only on demand when 0.
	// Migration counts are always recorded.
	RecordEvery int
	// Placer assigns partitions to vertices arriving from a dynamic
	// stream before the heuristic adapts them; nil means hash placement
	// with least-loaded fallback when the hashed partition is full.
	Placer func(v graph.VertexID, k int) partition.ID
	// WorkloadWeight scales the workload term of the migration utility:
	// when > 0, a neighbour w's vote for its partition is weighted
	// 1 + WorkloadWeight·heat(w)/max(heat), where heat is the decayed
	// read-traffic accumulator fed by FoldHeat. 0 (the default) is the
	// paper-exact objective — the heuristic stays byte-identical to a
	// build without the feature even while heat is being folded. See
	// heat.go.
	WorkloadWeight float64
	// BalanceEdges switches capacity accounting from vertex counts to
	// edge endpoints (vertex degrees) — the paper's first future-work
	// extension (Section 6). Quotas are then expressed in degree units
	// and a migrating vertex consumes its degree.
	BalanceEdges bool
	// DisableQuotas removes the per-pair migration quotas of Section 2.2
	// for ablation studies: it reproduces the node densification the
	// quotas exist to prevent. All capacity guarantees are void when set.
	DisableQuotas bool
}

// DefaultConfig returns the paper's standard setting: capacity 110 %,
// s = 0.5, 30-iteration convergence window, one shard. Placements do not
// depend on the shard count, so raising Parallelism (or 0 for one shard
// per CPU) only trades CPUs for wall-clock time.
func DefaultConfig(k int, seed int64) Config {
	return Config{
		K:                 k,
		CapacityFactor:    1.10,
		S:                 0.5,
		ConvergenceWindow: 30,
		MaxIterations:     5000,
		Seed:              seed,
		RecordEvery:       1,
		Parallelism:       1,
	}
}

func (c *Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: K must be ≥ 1, got %d", c.K)
	}
	// The float checks are written to fail on NaN, and the open-ended
	// ones also reject +Inf: a non-finite weight or factor would turn
	// every vote into NaN or the capacities into an undefined int.
	if !(c.CapacityFactor >= 1.0) || math.IsInf(c.CapacityFactor, 1) {
		return fmt.Errorf("core: CapacityFactor must be finite and ≥ 1.0, got %g", c.CapacityFactor)
	}
	if !(c.S >= 0 && c.S <= 1) {
		return fmt.Errorf("core: S must be in [0,1], got %g", c.S)
	}
	if c.ConvergenceWindow < 1 {
		return fmt.Errorf("core: ConvergenceWindow must be ≥ 1, got %d", c.ConvergenceWindow)
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("core: MaxIterations must be ≥ 1, got %d", c.MaxIterations)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be ≥ 0, got %d", c.Parallelism)
	}
	if !(c.WorkloadWeight >= 0) || math.IsInf(c.WorkloadWeight, 1) {
		return fmt.Errorf("core: WorkloadWeight must be finite and ≥ 0, got %g", c.WorkloadWeight)
	}
	return nil
}

// IterationStats records one iteration of the heuristic; the system
// experiments plot these series directly (e.g. Figure 7's cuts, migrations
// and time-per-iteration curves are built from them).
type IterationStats struct {
	Iteration  int
	Examined   int // vertices whose decision was evaluated (|V| on a full sweep, the active set when incremental)
	Requested  int // vertices that passed the S coin and wanted to move
	Migrations int // granted and applied moves
	CutEdges   int // -1 when not recorded this iteration
	CutRatio   float64
	Imbalance  float64
}

// Result summarises a Run.
type Result struct {
	// Iterations is the total number of iterations executed, including the
	// quiet convergence window.
	Iterations int
	// ConvergedAt is the iteration index after the last migration — the
	// paper's "convergence time". Equal to Iterations when the run hit
	// MaxIterations without converging.
	ConvergedAt int
	// Converged reports whether the zero-migration window was reached.
	Converged bool
	// FinalCutRatio is the cut ratio of the final assignment.
	FinalCutRatio float64
	// TotalMigrations accumulates granted moves over the whole run.
	TotalMigrations int
	// History holds per-iteration stats (cut fields filled according to
	// Config.RecordEvery).
	History []IterationStats
}

// Partitioner runs the adaptive heuristic over a graph and an assignment.
// It owns neither: the graph may be mutated externally between iterations
// (apply stream batches via ApplyBatch so bookkeeping stays consistent).
type Partitioner struct {
	cfg   Config
	g     *graph.Graph
	asn   *partition.Assignment
	caps  []int
	capsN int // vertex count the capacities were derived from
	iter  int
	quiet int
	// lastMigration is the iteration index of the most recent migration.
	lastMigration int
	// d is the decide→grant rule every step path runs; free is its
	// per-iteration capacity view. scorer holds the heat view every
	// shard's scorer shares.
	d      Decider
	free   []int
	scorer *Scorer
	// shards decide, one per resolved Parallelism; decs points at their
	// decisions.
	shards []*coreShard
	decs   []*ShardDecision
	// Active-set scheduler state (Config.Incremental): active holds the
	// frontier/parking bookkeeping shared with internal/adaptive, and
	// touchScratch buffers the per-batch mutation notices.
	active       *activeset.Set
	touchScratch []graph.VertexID
	// Change tracking (SetChangeTracking): when on, every vertex whose
	// assignment this partitioner writes — granted moves, stream
	// placements, removal unassignments — is appended to changed until
	// the next DrainChanges. Off by default and entirely passive: it
	// consumes no randomness and cannot alter any decision, so runs are
	// byte-identical with tracking on or off.
	trackChanges bool
	changed      []graph.VertexID
	// Workload heat (FoldHeat): heat is the dense decayed per-slot read
	// accumulator; heatIdx lists its non-zero slots in no particular
	// order and heatBits holds the same set as a bitmap, so folds and
	// the scorer touch only hot slots. Every fold hands both to the
	// scorers' shared heat view. heatWake is the fold's wake-dedupe
	// bitmap (all zero between folds).
	heat     []float32
	heatIdx  []int32
	heatBits []uint64
	heatWake []uint64
}

// New creates a Partitioner over g starting from the given initial
// assignment (which it adopts and mutates in place).
func New(g *graph.Graph, asn *partition.Assignment, cfg Config) (*Partitioner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if asn.K() != cfg.K {
		return nil, fmt.Errorf("core: assignment has k=%d, config k=%d", asn.K(), cfg.K)
	}
	if err := asn.Validate(g); err != nil {
		return nil, fmt.Errorf("core: invalid initial assignment: %w", err)
	}
	p := &Partitioner{
		cfg: cfg,
		g:   g,
		asn: asn,
		d: Decider{
			S:             cfg.S,
			Seed:          cfg.Seed,
			Incremental:   cfg.Incremental,
			BalanceEdges:  cfg.BalanceEdges,
			DisableQuotas: cfg.DisableQuotas,
		},
		free:   make([]int, cfg.K),
		scorer: NewScorer(),
	}
	par := cfg.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	p.shards = make([]*coreShard, par)
	p.decs = make([]*ShardDecision, par)
	for s := range p.shards {
		p.shards[s] = &coreShard{scorer: p.scorer.share()}
		p.decs[s] = &p.shards[s].dec
	}
	p.recomputeCapacities()
	if cfg.Incremental {
		// Seed the frontier with every live vertex — the initial state,
		// equivalent to a full sweep until the first vertices settle.
		p.active = activeset.New(cfg.K)
		p.active.Grow(g.NumSlots())
		g.ForEachVertex(p.active.Mark)
	}
	return p, nil
}

// Parallelism returns the resolved shard count the decide phase runs with.
func (p *Partitioner) Parallelism() int { return len(p.shards) }

// SetChangeTracking turns assignment-change recording on or off. While
// on, ApplyBatch and Step append every vertex whose placement they write
// to an internal buffer that DrainChanges hands over; the daemon's
// serving plane uses this to derive per-epoch routing diffs. Tracking is
// passive — it never affects the heuristic's decisions or draws —
// but the buffer grows until drained, so only enable it when something
// drains it. Toggling clears any undrained entries. Not safe for
// concurrent use with Step/ApplyBatch; callers synchronize externally
// (the daemon holds its state lock).
func (p *Partitioner) SetChangeTracking(on bool) {
	p.trackChanges = on
	p.changed = nil
}

// DrainChanges returns the vertices whose assignment changed since the
// previous drain (or since tracking was enabled) and resets the buffer.
// The returned slice is owned by the caller; it may contain duplicates
// when a vertex changed more than once, and entries whose placement
// ended up back where it started — consumers diff against their own
// previous table. Returns nil when tracking is off or nothing changed.
// Same synchronization contract as SetChangeTracking.
func (p *Partitioner) DrainChanges() []graph.VertexID {
	c := p.changed
	p.changed = nil
	return c
}

// recordChange notes that v's assignment was written, when tracking.
func (p *Partitioner) recordChange(v graph.VertexID) {
	if p.trackChanges {
		p.changed = append(p.changed, v)
	}
}

// Assignment returns the live assignment table (mutated by Step).
func (p *Partitioner) Assignment() *partition.Assignment { return p.asn }

// Graph returns the live graph the partitioner adapts. It is the same
// object passed to New/Restore — mutated by ApplyBatch — and callers must
// treat it as read-only between those calls; the snapshot path serializes
// it with graph.AppendBinary rather than retaining the reference.
func (p *Partitioner) Graph() *graph.Graph { return p.g }

// Capacities returns a copy of the current per-partition capacities.
func (p *Partitioner) Capacities() []int { return append([]int(nil), p.caps...) }

// Iteration returns the number of iterations executed so far.
func (p *Partitioner) Iteration() int { return p.iter }

// Converged reports whether the zero-migration window has been reached.
func (p *Partitioner) Converged() bool { return p.quiet >= p.cfg.ConvergenceWindow }

// recomputeCapacities re-derives C(i) from the current vertex count. The
// heuristic calls it whenever |V| changes so that a growing graph keeps the
// same proportional headroom (DESIGN.md §7).
func (p *Partitioner) recomputeCapacities() {
	p.capsN = p.g.NumVertices()
	p.caps = partition.UniformCapacities(p.capsN, p.cfg.K, p.cfg.CapacityFactor)
}

// ApplyBatch applies a mutation batch to the graph, places any new
// vertices, unassigns removed ones, resizes capacities, and resets the
// convergence window (a changed graph must re-converge). It returns the
// number of effective mutations.
func (p *Partitioner) ApplyBatch(b graph.Batch) int {
	if len(b) == 0 {
		return 0
	}
	// Track vertices present before, to detect removals handled by Apply.
	removedCandidates := make([]graph.VertexID, 0, len(b))
	for _, mu := range b {
		if mu.Kind == graph.MutRemoveVertex && p.g.Has(mu.U) {
			removedCandidates = append(removedCandidates, mu.U)
		}
	}
	// In incremental mode the graph reports every vertex the batch
	// touched; these seed the active set (together with their live
	// neighbourhoods, below) so the next Step examines exactly the
	// region of change.
	var touched func(graph.VertexID)
	if p.cfg.Incremental {
		p.touchScratch = p.touchScratch[:0]
		touched = func(v graph.VertexID) { p.touchScratch = append(p.touchScratch, v) }
	}
	applied := p.g.ApplyTouched(b, touched)
	if applied == 0 {
		return 0
	}
	p.asn.Grow(p.g.NumSlots())
	for _, v := range removedCandidates {
		if !p.g.Has(v) {
			p.asn.Unassign(v)
			p.recordChange(v)
		}
	}
	// Place newly-live vertices that have no partition yet.
	for _, mu := range b {
		switch mu.Kind {
		case graph.MutAddVertex:
			p.placeIfNew(mu.U)
		case graph.MutAddEdge:
			p.placeIfNew(mu.U)
			p.placeIfNew(mu.V)
		}
	}
	p.recomputeCapacities()
	if p.cfg.Incremental {
		p.active.Grow(p.g.NumSlots())
		// The touched set already covers every vertex whose Γ changed:
		// an edge mutation changes only its endpoints' neighbourhoods,
		// and a removal reports the removed vertex's neighbours. Marking
		// exactly that set keeps the wake proportional to the batch.
		for _, v := range p.touchScratch {
			if p.g.Has(v) {
				p.active.Mark(v)
			}
		}
		// Capacities were just re-derived from the new |V| (or degree
		// totals), which can raise any destination's quota: every parked
		// vertex gets another chance.
		p.active.UnparkAll()
	}
	p.quiet = 0
	return applied
}

func (p *Partitioner) placeIfNew(v graph.VertexID) {
	if !p.g.Has(v) || p.asn.Of(v) != partition.None {
		return
	}
	var target partition.ID
	if p.cfg.Placer != nil {
		target = p.cfg.Placer(v, p.cfg.K)
	} else {
		target = partition.HashVertex(v, p.cfg.K)
		// Hash placement ignores capacity in real systems; we only divert
		// when the hashed partition is already at capacity so the
		// |P(i)| ≤ C(i) invariant survives stream growth.
		if p.asn.Size(target) >= p.caps[target] {
			target = p.leastLoaded()
		}
	}
	p.asn.Assign(v, target)
	p.recordChange(v)
}

func (p *Partitioner) leastLoaded() partition.ID {
	best := partition.ID(0)
	for i := 1; i < p.cfg.K; i++ {
		if p.asn.Size(partition.ID(i)) < p.asn.Size(best) {
			best = partition.ID(i)
		}
	}
	return best
}

// begin runs the iteration preamble shared by every execution path:
// capacities are refreshed and the decider is started on the free
// capacity C(j) − load(j), in vertices or, edge-balanced, in degree
// units. Pure function of (graph, assignment, config), so every cluster
// replica derives the identical quota view independently.
func (p *Partitioner) begin() {
	if p.g.NumVertices() != p.capsN {
		p.recomputeCapacities()
	}
	if p.cfg.BalanceEdges {
		caps, loads := p.edgeCapacities(), EdgeLoads(p.g, p.asn)
		for j := range p.free {
			p.free[j] = caps[j] - loads[j]
		}
	} else {
		for j := range p.free {
			p.free[j] = p.caps[j] - p.asn.Size(partition.ID(j))
		}
	}
	p.d.Begin(p.g, p.asn, p.iter, p.free)
}

// apply is the second half of every iteration, in process (Step) and in
// a cluster (StepClusterApply): the decider grants the decisions'
// requests and runs the incremental barrier, then every granted move is
// applied simultaneously and the counters advance. The move list is in
// row, then slot order for every shard count, so recordChange and the
// wakes below see the moves in one order whatever the shard count.
func (p *Partitioner) apply(decisions []*ShardDecision) IterationStats {
	requested, examined := 0, 0
	for _, d := range decisions {
		requested += d.Requested
		examined += d.Examined
	}
	moves := p.d.Grant(decisions, p.active)

	// Apply all granted migrations simultaneously (end of iteration).
	for _, mv := range moves {
		p.asn.Assign(mv.V, mv.To)
		p.recordChange(mv.V)
	}
	if p.cfg.Incremental {
		// Every applied move changes the Γ-counts of the mover's
		// neighbours: re-wake them (and the mover, which re-settles).
		// Departures also free capacity in the source partition, so
		// vertices parked on it get another chance.
		for _, mv := range moves {
			p.active.MarkNeighborhood(p.g, mv.V)
		}
		for _, mv := range moves {
			p.active.UnparkDest(mv.From)
		}
	}

	st := IterationStats{
		Iteration:  p.iter,
		Examined:   examined,
		Requested:  requested,
		Migrations: len(moves),
		CutEdges:   -1,
	}
	if p.cfg.RecordEvery > 0 && p.iter%p.cfg.RecordEvery == 0 {
		st.CutEdges = partition.CutEdges(p.g, p.asn)
		st.CutRatio = ratio(st.CutEdges, p.g.NumEdges())
		st.Imbalance = partition.Imbalance(p.asn)
	}
	if len(moves) == 0 {
		p.quiet++
	} else {
		p.quiet = 0
		p.lastMigration = p.iter
	}
	p.iter++
	return st
}

// Run iterates until convergence (ConvergenceWindow quiet iterations) or
// MaxIterations: RunDynamic over a stream that has already ended.
func (p *Partitioner) Run() Result {
	return p.RunDynamic(graph.NewSliceStream(nil))
}

// RunDynamic interleaves the heuristic with a mutation stream: each
// iteration first applies the stream's next batch (if any), then runs one
// Step. After the stream is exhausted the loop continues until convergence
// or MaxIterations. It returns the run summary; History always includes
// every iteration.
func (p *Partitioner) RunDynamic(stream graph.Stream) Result {
	var res Result
	for p.iter < p.cfg.MaxIterations {
		if !stream.Done() {
			p.ApplyBatch(stream.Next())
		} else if p.Converged() {
			break
		}
		st := p.Step()
		res.History = append(res.History, st)
		res.TotalMigrations += st.Migrations
	}
	res.Iterations = p.iter
	res.Converged = p.Converged()
	if res.Converged {
		res.ConvergedAt = p.lastMigration + 1
	} else {
		res.ConvergedAt = p.iter
	}
	res.FinalCutRatio = partition.CutRatio(p.g, p.asn)
	return res
}

// CutRatio computes the current cut ratio on demand.
func (p *Partitioner) CutRatio() float64 { return partition.CutRatio(p.g, p.asn) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

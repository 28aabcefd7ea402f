// Package server implements the streaming partition daemon behind
// cmd/apartd: a long-lived service that ingests graph mutations over
// HTTP/JSON, coalesces them into graph.Batches on a configurable tick,
// drives the incremental core.Partitioner re-adaptation loop between
// ticks, and answers placement and statistics queries while the stream
// keeps flowing — the serving form the paper's systems (xDGP-style
// partitioners embedded in near-real-time graph processing) assume.
//
// Concurrency model: ingestion and adaptation never share a lock.
// Ingest (JSON POST /v1/mutations or the binary frame plane) appends to
// one of several sharded pending queues — each producer sticks to a
// shard, so per-producer order is preserved while concurrent producers
// never contend on one mutex — bounded by MaxPending (excess batches are
// rejected with backpressure, not buffered). The tick loop swaps the
// shard queues out, applies them and runs heuristic iterations under the
// state lock, held per-iteration so placement queries (read lock)
// interleave between iterations rather than waiting out a whole tick.
// Checkpoints capture under the state lock (pending heat samples fold
// into the partitioner first, so no sampled read is lost between ticks)
// and write to disk outside any lock.
package server

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xdgp/internal/cluster"
	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/heat"
	"xdgp/internal/partition"
	"xdgp/internal/snapshot"
)

// Config parameterises the daemon. The zero value is invalid; use
// DefaultConfig and adjust.
type Config struct {
	// K is the number of partitions (fixed for the daemon's lifetime).
	K int
	// Seed drives every random choice; together with the stream it
	// determines the assignment byte-for-byte.
	Seed int64
	// S, CapacityFactor, Parallelism and Incremental are the heuristic
	// knobs, with core.Config semantics. Incremental defaults on in
	// DefaultConfig: a long-lived daemon lives in the steady state the
	// active-set scheduler is built for.
	S              float64
	CapacityFactor float64
	Parallelism    int
	Incremental    bool
	// TickEvery is the mutation-coalescing period of the background
	// loop started by Start. Tests drive ticks directly via TickNow.
	TickEvery time.Duration
	// MaxStepsPerTick bounds the heuristic iterations run to absorb one
	// tick's batch; convergence usually stops a tick much earlier.
	MaxStepsPerTick int
	// ConvergenceWindow is the quiet-iteration window after which the
	// partitioner counts as converged (the paper uses 30).
	ConvergenceWindow int
	// CheckpointPath, when set, is where POST /v1/checkpoint (with no
	// explicit path), the periodic checkpointer and the shutdown drain
	// write snapshots.
	CheckpointPath string
	// CheckpointEvery auto-checkpoints every n ticks (0 disables).
	// Requires CheckpointPath.
	CheckpointEvery int
	// WatchRing is how many recent epoch diffs the GET /v1/watch feed
	// retains for late or reconnecting consumers; a consumer asking for
	// older epochs gets a resync event instead. Bounds the feed's memory
	// regardless of consumer speed. 0 means DefaultWatchRing.
	WatchRing int
	// MaxPending caps the total ingest queue (mutations awaiting a tick,
	// summed across shards). A batch that would exceed the cap is
	// rejected whole — HTTP 429 with a Retry-After hint, a backpressure
	// NAK on the binary plane — so a producer outrunning the tick drain
	// bounds the daemon's memory instead of growing it to OOM.
	// 0 means DefaultMaxPending; negative disables the cap.
	MaxPending int
	// IngestShards is the number of independent ingest queues. Each
	// connection (binary) or client (JSON, by remote address) sticks to
	// one shard, so per-producer mutation order is preserved while
	// concurrent producers stop contending on one mutex. 0 means one
	// shard per CPU (capped at MaxIngestShards).
	IngestShards int
	// WatchWriteTimeout bounds each event write on a GET /v1/watch
	// stream. A consumer that cannot take an event within the deadline
	// is dropped (counted in apartd_watch_dropped_total) instead of
	// wedging its handler goroutine on a dead TCP peer forever.
	// 0 means DefaultWatchWriteTimeout; negative disables the deadline.
	WatchWriteTimeout time.Duration
	// BinaryIdleTimeout disconnects a binary-plane connection silent for
	// this long (the producer redials). 0 means
	// DefaultBinaryIdleTimeout; negative disables the deadline.
	BinaryIdleTimeout time.Duration
	// WorkloadWeight enables the workload-aware migration objective
	// (core.Config.WorkloadWeight): read traffic observed by the serving
	// plane is folded into the partitioner every tick and weights each
	// neighbour's vote by its decayed heat. 0 (the default) keeps the
	// paper-exact topology-only objective, byte-identical to previous
	// releases. Setting it > 0 also turns heat recording on.
	WorkloadWeight float64
	// HeatHalfLife is the half-life of the read-heat accumulator: after
	// this much idle time a vertex's heat halves. The decay is applied
	// per tick (factor 0.5^(TickEvery/HeatHalfLife)), so the accumulator
	// is deterministic in ticks, not wall-clock. 0 means
	// DefaultHeatHalfLife.
	HeatHalfLife time.Duration
	// HeatSample is the read-sampling interval: one in this many reads
	// per heat shard records its vertex ID (rounded down to a power of
	// two). 0 means heat.DefaultSample; 1 records every read (tests).
	HeatSample int
	// HeatRecord forces heat recording on even with WorkloadWeight == 0,
	// so operators can watch apartd_heat_* metrics before enabling the
	// objective. Recording is passive: WorkloadWeight == 0 assignments
	// stay byte-identical with it on or off.
	HeatRecord bool
	// Exchange, when non-nil, puts the daemon in cluster mode: it is
	// shard Exchange.Shard() of Exchange.Shards() replicas of one
	// deterministic state machine, and each tick takes its batch and
	// every iteration's decisions from barrier rounds on this exchange
	// (see internal/cluster and cluster.go). The daemon never closes the
	// Exchange — its caller owns it, and must keep it open across Drain
	// so the final rounds complete. Cluster mode rejects WorkloadWeight
	// > 0 (read heat is shard-local, so a workload term would diverge the
	// replicas). Parallelism stays free: it sets how many goroutines
	// decide this shard's slice.
	Exchange cluster.Exchange
}

// DefaultMaxPending is the ingest-queue cap used when Config.MaxPending
// is zero: one million mutations ≈ a few hundred seconds of headroom at
// typical tick drain rates, ~16 MiB resident worst case.
const DefaultMaxPending = 1 << 20

// MaxIngestShards caps the shard count resolved from IngestShards=0 —
// beyond this, per-shard batches get too small for the tick drain to
// amortise.
const MaxIngestShards = 32

// DefaultWatchWriteTimeout is the per-event write deadline used when
// Config.WatchWriteTimeout is zero. 30 s tolerates long consumer GC
// pauses while still reclaiming handlers from dead peers.
const DefaultWatchWriteTimeout = 30 * time.Second

// DefaultHeatHalfLife is the read-heat half-life used when
// Config.HeatHalfLife is zero: 30 s forgets a flash crowd within a few
// minutes of it moving on while smoothing over single-tick read bursts.
const DefaultHeatHalfLife = 30 * time.Second

// DefaultConfig returns the daemon's standard setting: the paper's
// heuristic parameters, incremental scheduling, a 250 ms coalescing tick
// and a per-tick iteration budget of ConvergenceWindow+10 (enough to
// absorb a batch and prove quiescence).
func DefaultConfig(k int, seed int64) Config {
	return Config{
		K:                 k,
		Seed:              seed,
		S:                 0.5,
		CapacityFactor:    1.10,
		Parallelism:       1,
		Incremental:       true,
		TickEvery:         250 * time.Millisecond,
		MaxStepsPerTick:   40,
		ConvergenceWindow: 30,
	}
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("server: K must be ≥ 1, got %d", c.K)
	}
	if c.MaxStepsPerTick < 1 {
		return fmt.Errorf("server: MaxStepsPerTick must be ≥ 1, got %d", c.MaxStepsPerTick)
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("server: CheckpointEvery=%d requires CheckpointPath", c.CheckpointEvery)
	}
	if c.WatchRing < 0 {
		return fmt.Errorf("server: WatchRing must be ≥ 0, got %d", c.WatchRing)
	}
	if c.IngestShards < 0 {
		return fmt.Errorf("server: IngestShards must be ≥ 0, got %d", c.IngestShards)
	}
	if !(c.WorkloadWeight >= 0) || math.IsInf(c.WorkloadWeight, 1) {
		return fmt.Errorf("server: WorkloadWeight must be finite and ≥ 0, got %g", c.WorkloadWeight)
	}
	// The heuristic's own ranges are checked by core.New; a non-finite
	// value is refused here already, with the daemon's field name.
	for _, f := range []struct {
		name string
		v    float64
	}{{"S", c.S}, {"CapacityFactor", c.CapacityFactor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("server: %s must be finite, got %g", f.name, f.v)
		}
	}
	if c.HeatHalfLife < 0 {
		return fmt.Errorf("server: HeatHalfLife must be ≥ 0, got %v", c.HeatHalfLife)
	}
	if c.HeatSample < 0 {
		return fmt.Errorf("server: HeatSample must be ≥ 0, got %d", c.HeatSample)
	}
	if c.Exchange == nil {
		return nil
	}
	if c.K < 2 {
		return fmt.Errorf("server: cluster mode needs K ≥ 2, got %d", c.K)
	}
	if c.WorkloadWeight != 0 {
		return fmt.Errorf("server: the workload objective is unavailable in cluster mode (heat is shard-local; replicas would diverge)")
	}
	if c.MaxPending < 0 || c.MaxPending > graph.MaxWireBatch {
		return fmt.Errorf("server: cluster mode needs 0 ≤ MaxPending ≤ %d (a tick's batch must fit one round payload), got %d",
			graph.MaxWireBatch, c.MaxPending)
	}
	return nil
}

func (c Config) coreConfig() core.Config {
	cc := core.DefaultConfig(c.K, c.Seed)
	cc.S = c.S
	cc.CapacityFactor = c.CapacityFactor
	cc.Parallelism = c.Parallelism
	cc.Incremental = c.Incremental
	cc.ConvergenceWindow = c.ConvergenceWindow
	cc.WorkloadWeight = c.WorkloadWeight
	cc.RecordEvery = 0
	cc.MaxIterations = math.MaxInt32 // Step-driven; Run's bound is unused
	return cc
}

// Server is the daemon state. Construct with New or Restore, serve its
// Handler, and either Start the background tick loop or drive TickNow
// directly.
type Server struct {
	cfg     Config
	coreCfg core.Config

	// mu guards the partitioner (graph + assignment + scheduler state).
	mu   sync.RWMutex
	part *core.Partitioner

	// The ingest plane: per-shard queues (each with its own mutex, never
	// held together with mu), a shared atomic occupancy counter that
	// enforces maxPending without taking any shard lock, and a
	// round-robin cursor for producers without a natural shard key.
	shards     []ingestShard
	maxPending int           // resolved cap (math.MaxInt when disabled)
	pendingN   atomic.Int64  // mutations queued across all shards
	enqueueRR  atomic.Uint32 // round-robin cursor for Enqueue

	// Monotonic counters, atomically updated, exported by /metrics.
	ingested     atomic.Uint64 // mutations accepted over HTTP
	rejected     atomic.Uint64 // mutations refused by the MaxPending cap
	applied      atomic.Uint64 // mutations that changed the graph
	ticks        atomic.Uint64 // coalescing ticks processed
	iterations   atomic.Uint64 // heuristic iterations executed
	examined     atomic.Uint64 // per-vertex decisions evaluated
	migrations   atomic.Uint64 // granted moves
	checkpoints  atomic.Uint64 // snapshots written
	ckptFailures atomic.Uint64 // periodic/drain checkpoint attempts that failed
	lastBatch    atomic.Int64  // size of the last coalesced batch
	lastCkptUnx  atomic.Int64  // unix seconds of the last checkpoint

	// The workload-heat plane: heatTable samples read traffic off the
	// lock-free lookup paths (heat.Record is wait-free; nil-safe when
	// recording never got enabled), heatBuf is the tick loop's reusable
	// drain buffer, heatDecay the per-tick decay factor derived from
	// HeatHalfLife/TickEvery. heatMaxBits/heatHot mirror the
	// accumulator's state for /metrics and /v1/stats.
	heatTable   *heat.Table
	heatBuf     []graph.VertexID
	heatDecay   float64
	heatFolds   atomic.Uint64 // tick-boundary folds executed
	heatSamples atomic.Uint64 // sampled reads folded into the partitioner
	heatMaxBits atomic.Uint64 // float64 bits of the accumulator maximum
	heatHot     atomic.Int64  // vertices with non-zero heat after the last fold

	// The serving plane: routing holds the current epoch snapshot (all
	// read endpoints load it with one atomic pointer read and never take
	// mu), hub fans epoch diffs out to /v1/watch consumers. Both are
	// written only by publishRouting, under mu.
	routing atomic.Pointer[RoutingSnapshot]
	hub     *watchHub

	// Serving-plane counters, atomically updated, exported by /metrics.
	publishes     atomic.Uint64 // routing snapshots published
	watchers      atomic.Int64  // currently connected watch streams
	watchEvents   atomic.Uint64 // diff lines written across all watchers
	watchResyncs  atomic.Uint64 // resync events sent to lagging watchers
	watchDropped  atomic.Uint64 // watch subscribers dropped on a write-deadline miss
	batchRequests atomic.Uint64 // POST /v1/placements requests served
	batchLookups  atomic.Uint64 // vertex lookups served by those requests

	// The binary ingest plane (binary.go): live connections tracked for
	// teardown, plus its own counters. binDraining flips once DrainBinary
	// begins — handlers then answer every further batch frame with a
	// shutdown NAK instead of enqueueing — and binDrainUntil is the drain
	// window's deadline (unix nanos).
	binMu         sync.Mutex
	binConns      map[net.Conn]struct{}
	binDraining   atomic.Bool
	binDrainUntil atomic.Int64
	binaryConns   atomic.Int64  // currently connected binary producers
	binaryFrames  atomic.Uint64 // batch frames accepted

	// instance identifies this process incarnation. Epochs are
	// per-process, so a consumer that resumes across a daemon restart
	// must not mistake the new process's epoch N for its own epoch N —
	// the instance token is what lets it tell (docs/REPLICATION.md).
	// Random, not persisted: a restart IS a new incarnation, even from
	// a checkpoint.
	instance string

	// Cluster mode (cluster.go). tickMu serializes whole ticks — cluster
	// rounds must never interleave, and a checkpoint taken between a
	// round's exchange and its apply would record the round as completed
	// without the moves it produced — so TickNow and the public Checkpoint
	// both hold it for their full duration. clusterRounds is the highest
	// completed exchange round (persisted in checkpoints as the replay
	// watermark); clusterErr latches the first failure that poisoned
	// cluster mode.
	tickMu          sync.Mutex
	clusterRounds   atomic.Uint64
	clusterReplayed atomic.Uint64
	clusterWaitNs   atomic.Int64
	clusterHash     atomic.Uint64
	clusterErr      atomic.Pointer[clusterFault]

	mux      *http.ServeMux
	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// New creates a daemon over an empty graph: every vertex it will ever
// serve arrives through the mutation stream.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	coreCfg := cfg.coreConfig()
	g := graph.NewUndirected(0)
	p, err := core.New(g, partition.NewAssignment(0, cfg.K), coreCfg)
	if err != nil {
		return nil, err
	}
	return newServer(cfg, coreCfg, p), nil
}

// Restore creates a daemon resuming from a snapshot: graph, assignment,
// convergence bookkeeping, scheduler frontier and heat all continue
// exactly where the checkpointed daemon stopped. The snapshot's algorithm
// parameters override cfg's (K, Seed, S, CapacityFactor, Incremental,
// ConvergenceWindow) — a daemon cannot change the algorithm mid-stream
// without forfeiting determinism — while cfg's Parallelism and serving
// knobs (tick period, step budget, checkpoint policy) apply: placements
// do not depend on the shard count.
func Restore(cfg Config, snap *snapshot.Snapshot) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	coreCfg := snap.Params.Config()
	coreCfg.RecordEvery = 0
	coreCfg.Parallelism = cfg.Parallelism
	p, err := core.Restore(snap.Graph, snap.Assignment, coreCfg, snap.Core)
	if err != nil {
		return nil, err
	}
	cfg.K = snap.Params.K
	cfg.Seed = snap.Params.Seed
	cfg.S = snap.Params.S
	cfg.CapacityFactor = snap.Params.CapacityFactor
	cfg.Incremental = snap.Params.Incremental
	cfg.ConvergenceWindow = snap.Params.ConvergenceWindow
	cfg.WorkloadWeight = snap.Params.WorkloadWeight
	if err := restoreClusterIdentity(&cfg, snap); err != nil {
		return nil, err
	}
	s := newServer(cfg, coreCfg, p)
	if snap.Cluster != nil {
		s.clusterRounds.Store(snap.Cluster.RoundsCompleted)
	}
	s.ticks.Store(snap.Meta.Ticks)
	s.ingested.Store(snap.Meta.MutationsIngested)
	s.applied.Store(snap.Meta.MutationsApplied)
	return s, nil
}

func newServer(cfg Config, coreCfg core.Config, p *core.Partitioner) *Server {
	ring := cfg.WatchRing
	if ring == 0 {
		ring = DefaultWatchRing
	}
	maxPending := cfg.MaxPending
	switch {
	case maxPending == 0:
		maxPending = DefaultMaxPending
	case maxPending < 0:
		maxPending = math.MaxInt
	}
	nShards := cfg.IngestShards
	if nShards == 0 {
		nShards = runtime.GOMAXPROCS(0)
		if nShards > MaxIngestShards {
			nShards = MaxIngestShards
		}
	}
	s := &Server{
		cfg:        cfg,
		coreCfg:    coreCfg,
		part:       p,
		shards:     make([]ingestShard, nShards),
		maxPending: maxPending,
		heatTable:  heat.New(cfg.HeatSample),
		heatDecay:  heatDecayPerTick(cfg),
		hub:        newWatchHub(uint64(ring)),
		instance:   newInstanceToken(),
		stop:       make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	s.heatTable.SetRecording(cfg.WorkloadWeight > 0 || cfg.HeatRecord)
	s.publishInitialRouting()
	s.mux = s.routes()
	return s
}

// heatDecayPerTick derives the per-tick heat decay factor
// 0.5^(TickEvery/HeatHalfLife). The accumulator decays in tick units —
// deterministic for a fixed tick count — so the half-life is honoured at
// the configured tick rate, not against a wall clock.
func heatDecayPerTick(cfg Config) float64 {
	half := cfg.HeatHalfLife
	if half == 0 {
		half = DefaultHeatHalfLife
	}
	tick := cfg.TickEvery
	if tick <= 0 {
		tick = 250 * time.Millisecond // DefaultConfig's tick, for tests that never Start
	}
	return math.Exp2(-tick.Seconds() / half.Seconds())
}

// newInstanceToken draws a fresh process-incarnation identity. It is
// serving-plane metadata only — never part of the deterministic
// partitioner state — so real randomness here does not threaten the
// fixed-seed reproducibility contract.
func newInstanceToken() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived token still changes across restarts, which is the
		// only property consumers rely on.
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Instance returns this process incarnation's identity token. It is
// exposed to clients as the X-Apartd-Instance response header and the
// /v1/stats instance field; replicas compare it across requests to
// detect upstream restarts that an epoch check alone could miss.
func (s *Server) Instance() string { return s.instance }

// Config returns the serving configuration (after any snapshot
// overrides).
func (s *Server) Config() Config { return s.cfg }

// ingestShard is one independent ingest queue. Its mutex is never held
// together with the server's state lock, and shards never share cache
// lines under write contention in practice (each is touched by a stable
// subset of producers).
type ingestShard struct {
	mu          sync.Mutex
	pending     graph.Batch
	oldestUnixN int64 // UnixNano of the oldest pending mutation, 0 when empty
}

// Enqueue appends mutations to the pending queue consumed by the next
// tick, picking a shard round-robin. It never blocks on adaptation.
// Returns the total queue length after the append and whether the batch
// was accepted: ok=false means the MaxPending cap would be exceeded and
// NOTHING was enqueued — the producer should back off one tick and
// retry the same batch.
func (s *Server) Enqueue(b graph.Batch) (queued int, ok bool) {
	return s.EnqueueShard(b, s.enqueueRR.Add(1)-1)
}

// EnqueueShard is Enqueue onto an explicit shard (taken modulo the shard
// count). Producers with a natural stream identity — a binary-plane
// connection, a JSON client address — use a sticky shard so their own
// mutation order survives the sharded drain; ordering across different
// producers is unspecified, exactly as it already was under concurrent
// HTTP ingest.
func (s *Server) EnqueueShard(b graph.Batch, shard uint32) (queued int, ok bool) {
	if len(b) == 0 {
		return int(s.pendingN.Load()), true
	}
	// Reserve capacity first, against the atomic total: the cap check
	// never takes a shard lock, and concurrent reservations can only
	// under-fill, never overshoot.
	n := s.pendingN.Add(int64(len(b)))
	if n > int64(s.maxPending) {
		s.pendingN.Add(-int64(len(b)))
		s.rejected.Add(uint64(len(b)))
		return int(n - int64(len(b))), false
	}
	sh := &s.shards[int(shard)%len(s.shards)]
	sh.mu.Lock()
	if len(sh.pending) == 0 {
		sh.oldestUnixN = time.Now().UnixNano()
	}
	sh.pending = append(sh.pending, b...)
	sh.mu.Unlock()
	s.ingested.Add(uint64(len(b)))
	return int(n), true
}

// RetryAfterHint is the backoff the daemon suggests to a producer that
// hit the MaxPending cap: one tick period (the queue drains on ticks),
// never less than a millisecond.
func (s *Server) RetryAfterHint() time.Duration {
	if s.cfg.TickEvery > time.Millisecond {
		return s.cfg.TickEvery
	}
	return time.Millisecond
}

// PendingMutations returns the current ingest-queue length (across all
// shards) and the age of its oldest entry (zero when empty) — the
// daemon's ingest lag.
func (s *Server) PendingMutations() (n int, age time.Duration) {
	oldest := int64(0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.pending)
		if len(sh.pending) > 0 && (oldest == 0 || sh.oldestUnixN < oldest) {
			oldest = sh.oldestUnixN
		}
		sh.mu.Unlock()
	}
	if oldest != 0 {
		age = time.Duration(time.Now().UnixNano() - oldest)
	}
	return n, age
}

// drainPending swaps out every shard's queue and concatenates them in
// shard order. Mutations from one producer stay in their enqueue order
// (a producer sticks to one shard); interleaving across producers is
// arbitrary, as it is for any concurrent ingest.
func (s *Server) drainPending() graph.Batch {
	var batch graph.Batch
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		p := sh.pending
		sh.pending = nil
		sh.oldestUnixN = 0
		sh.mu.Unlock()
		if len(p) == 0 {
			continue
		}
		if batch == nil {
			batch = p // single-busy-shard fast path: no copy
		} else {
			batch = append(batch, p...)
		}
	}
	s.pendingN.Add(-int64(len(batch)))
	return batch
}

// TickResult reports one coalescing tick. It is also the response body
// of POST /v1/tick in manual tick mode. In cluster mode BatchSize and
// Applied count the global merged batch (every shard's mutations), and
// MorePending reports queued mutations anywhere in the cluster.
type TickResult struct {
	BatchSize   int  `json:"batch_size"`   // mutations coalesced into this tick
	Applied     int  `json:"applied"`      // mutations that changed the graph
	Steps       int  `json:"steps"`        // heuristic iterations run
	Migrations  int  `json:"migrations"`   // moves granted across those iterations
	Examined    int  `json:"examined"`     // vertex decisions evaluated across those iterations
	Converged   bool `json:"converged"`    // partitioner quiescent after the tick
	Compacted   bool `json:"compacted"`    // adjacency arena folded between ticks
	Checkpoint  bool `json:"checkpoint"`   // periodic checkpoint written after the tick
	MorePending bool `json:"more_pending"` // cluster mode: mutations still queued on some shard
}

// TickNow runs one coalescing tick synchronously: take the tick's batch,
// apply it, and run heuristic iterations until convergence or the
// per-tick budget. The background loop calls it on every TickEvery; tests,
// the drain path and POST /v1/tick (manual mode) call it directly. Ticks
// are serialized by tickMu: in cluster mode a tick is a sequence of
// barrier rounds that must not interleave with another tick's. Its two
// seams, tickBatch and step, are all that cluster mode changes; a seam
// error poisons cluster mode, and a poisoned cluster's ticks are no-ops.
func (s *Server) TickNow() TickResult {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	var res TickResult
	if s.ClusterError() != nil {
		return res
	}
	batch, morePending, err := s.tickBatch()
	if err != nil {
		s.failCluster(err)
		return res
	}
	res.BatchSize = len(batch)
	res.MorePending = morePending
	s.lastBatch.Store(int64(len(batch)))

	s.mu.Lock()
	if len(batch) > 0 {
		res.Applied = s.part.ApplyBatch(batch)
		s.applied.Add(uint64(res.Applied))
		// Freshly streamed vertices become routable before the first
		// adaptation step: the batch's placements are an epoch of their
		// own.
		s.publishRouting()
	}
	// Fold the tick's sampled read traffic into the partitioner's heat
	// accumulator (after the batch, so heat covers any slots it added).
	// With WorkloadWeight > 0 fresh samples re-open convergence — hot
	// neighbourhoods re-decide against the new heat; with the objective
	// off the fold only maintains the observability accumulator.
	s.foldHeatLocked(s.heatDecay)
	converged := s.part.Converged()
	s.mu.Unlock()

	// A converged partitioner with nothing new to absorb: an idle tick
	// costs two mutex operations and no iterations.
	for !converged && res.Steps < s.cfg.MaxStepsPerTick {
		st, done, err := s.step()
		if err != nil {
			s.failCluster(err)
			return res
		}
		converged = done
		s.iterations.Add(1)
		s.migrations.Add(uint64(st.Migrations))
		s.examined.Add(uint64(st.Examined))
		res.Steps++
		res.Migrations += st.Migrations
		res.Examined += st.Examined
	}
	res.Converged = converged

	// Between-tick housekeeping: fold the adjacency overlay back into the
	// CSR arena once it outgrows the eager threshold, off the ingest and
	// query paths. Compaction reorders dirty adjacency lists, which the
	// integer scorer ignores but the heat-weighted scorer's float sums
	// can see (a near-tie may round the other way), so this call is part
	// of the replayed history, not a neutral optimisation. It stays
	// deterministic: it runs at tick boundaries on the overlay mass, a
	// pure function of the mutation history, and checkpoints taken
	// mid-overlay serialize the overlay exactly either way.
	s.mu.Lock()
	// Publish the tick's adaptation outcome as one epoch: every migration
	// granted across the step loop above, folded into a single snapshot
	// swap and one watch diff.
	s.publishRouting()
	if s.part.Graph().MaybeCompact() {
		res.Compacted = true
	}
	s.mu.Unlock()

	tick := s.ticks.Add(1)

	if s.cfg.CheckpointEvery > 0 && tick%uint64(s.cfg.CheckpointEvery) == 0 {
		// checkpoint, not Checkpoint: the tick already holds tickMu.
		if _, err := s.checkpoint(s.cfg.CheckpointPath); err == nil {
			res.Checkpoint = true
		} else {
			s.ckptFailures.Add(1)
		}
	}
	return res
}

// tickBatch returns the tick's mutations and whether more are queued:
// the local ingest queue, or in cluster mode the batch round's merge.
func (s *Server) tickBatch() (graph.Batch, bool, error) {
	if s.cfg.Exchange != nil {
		return s.clusterBatch()
	}
	return s.drainPending(), false, nil
}

// step runs one heuristic iteration and reports convergence after it;
// in cluster mode the decisions come from a step round.
func (s *Server) step() (core.IterationStats, bool, error) {
	if s.cfg.Exchange != nil {
		return s.clusterStep()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.part.Step(), s.part.Converged(), nil
}

// foldHeatLocked drains the heat table and folds the samples into the
// partitioner. Caller holds mu (write). A no-op until recording is
// enabled; once it is, every tick folds with the per-tick decay (heat
// cools through read-silent ticks). A checkpoint folds with decay 1, so
// it inserts no extra decay step yet loses no read sampled since the
// last tick (Drain is destructive); with no samples that fold is skipped.
func (s *Server) foldHeatLocked(decay float64) {
	if !s.heatTable.Recording() {
		return
	}
	s.heatBuf = s.heatTable.Drain(s.heatBuf[:0])
	if decay == 1 && len(s.heatBuf) == 0 {
		return
	}
	max, hot := s.part.FoldHeat(decay, s.heatBuf, float64(s.heatTable.Sample()))
	s.heatFolds.Add(1)
	s.heatSamples.Add(uint64(len(s.heatBuf)))
	s.heatMaxBits.Store(math.Float64bits(max))
	s.heatHot.Store(int64(hot))
}

// RecordRead notes one serving-plane read of v in the heat table. It is
// called on every placement answered — single, batch and replica page
// lookups — and is wait-free (one atomic add when recording, one atomic
// load when not), preserving the lock-free read path's latency.
func (s *Server) RecordRead(v graph.VertexID) { s.heatTable.Record(v) }

// Checkpoint captures the full daemon state and atomically writes it to
// path (cfg.CheckpointPath when path is empty). Safe to call while
// serving: capture holds the state lock (write — pending heat samples
// are folded into the partitioner first, so a between-tick checkpoint
// loses no sampled reads), the file write happens outside all locks.
// It serializes against whole ticks (tickMu): in cluster mode a capture
// between a round's exchange and its apply would record the round as
// completed without the moves it produced, which could never replay.
func (s *Server) Checkpoint(path string) (*snapshot.Snapshot, error) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	return s.checkpoint(path)
}

// checkpoint is Checkpoint's body; callers already holding tickMu (the
// tick loop's periodic checkpoint) use it directly.
func (s *Server) checkpoint(path string) (*snapshot.Snapshot, error) {
	if path == "" {
		path = s.cfg.CheckpointPath
	}
	if path == "" {
		return nil, fmt.Errorf("server: no checkpoint path configured")
	}
	s.mu.Lock()
	s.foldHeatLocked(1)
	// Counters are read under the same lock that freezes the partitioner,
	// so the snapshot's Meta always agrees with its captured graph (tick
	// mutations update both inside the write-lock window).
	meta := snapshot.Meta{
		Ticks:             s.ticks.Load(),
		MutationsIngested: s.ingested.Load(),
		MutationsApplied:  s.applied.Load(),
		CreatedUnix:       time.Now().Unix(),
	}
	snap, err := snapshot.Capture(s.part, s.coreCfg, meta)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if s.cfg.Exchange != nil {
		// The replay watermark is consistent with the captured state:
		// tickMu guarantees no round completed since the capture above.
		snap.Cluster = &snapshot.ClusterIdentity{
			ShardID:         uint32(s.cfg.Exchange.Shard()),
			NumShards:       uint32(s.cfg.Exchange.Shards()),
			RoundsCompleted: s.clusterRounds.Load(),
		}
	}
	if err := snapshot.Save(path, snap); err != nil {
		return nil, err
	}
	s.checkpoints.Add(1)
	s.lastCkptUnx.Store(meta.CreatedUnix)
	return snap, nil
}

// Start launches the background tick loop. Stop (or Drain) terminates
// it. Calling Start twice is a no-op. With TickEvery ≤ 0 the daemon runs
// in manual tick mode: no loop starts and POST /v1/tick (or TickNow)
// drives every tick — the mode cluster tests and the smoke harness use
// to run all shards' barrier rounds in lockstep.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	if s.cfg.TickEvery <= 0 {
		close(s.loopDone)
		return
	}
	go func() {
		defer close(s.loopDone)
		ticker := time.NewTicker(s.cfg.TickEvery)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				s.TickNow()
			}
		}
	}()
}

// Stop terminates the background tick loop and waits for it to exit,
// then disconnects any binary-plane producers (their listener, owned by
// the caller, must be closed separately). Idempotent; a server that
// never Started returns after the teardown.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.loopDone
	}
	s.CloseBinary()
}

// Drain performs the graceful-shutdown sequence: stop the tick loop,
// absorb every pending mutation (ticking until the queue is empty and
// the partitioner converges or maxTicks elapse), and write a final
// checkpoint when one is configured. It returns the number of drain
// ticks executed and the final checkpoint's error — a failed final
// snapshot must surface to the operator (data since the last good
// checkpoint would otherwise be silently unrecoverable).
func (s *Server) Drain(maxTicks int) (int, error) {
	// Answer the binary plane's in-flight frames before anything closes:
	// already-ACKed batches sit in the ingest queue (absorbed by the drain
	// ticks below), later frames get an explicit shutdown NAK. Stop's
	// force-close then finds no connections left.
	s.DrainBinary(0)
	s.Stop()
	n := 0
	for ; n < maxTicks; n++ {
		res := s.TickNow()
		// A poisoned cluster cannot progress: checkpoint as-is. Otherwise
		// drain cluster-wide (MorePending: mutations queued on any shard).
		if s.ClusterError() != nil {
			break
		}
		pending, _ := s.PendingMutations()
		if !res.MorePending && pending == 0 && res.Converged {
			n++
			break
		}
	}
	if s.cfg.CheckpointPath != "" {
		if _, err := s.Checkpoint(s.cfg.CheckpointPath); err != nil {
			s.ckptFailures.Add(1)
			return n, fmt.Errorf("final checkpoint: %w", err)
		}
	}
	return n, nil
}

// Stats is the point-in-time summary served by GET /v1/stats.
type Stats struct {
	// Instance is the process-incarnation token (see Server.Instance);
	// RoutingEpoch is the epoch of the currently published routing
	// snapshot. Together they let a replica decide cheaply whether its
	// upstream is still the process it bootstrapped from and how far
	// behind it is running.
	Instance       string  `json:"instance"`
	RoutingEpoch   uint64  `json:"routing_epoch"`
	Vertices       int     `json:"vertices"`
	Edges          int     `json:"edges"`
	K              int     `json:"k"`
	PartitionSizes []int   `json:"partition_sizes"`
	CutEdges       int     `json:"cut_edges"`
	CutRatio       float64 `json:"cut_ratio"`
	Imbalance      float64 `json:"imbalance"`
	Iteration      int     `json:"iteration"`
	Converged      bool    `json:"converged"`
	DirtyCount     int     `json:"dirty_count"`
	Ticks          uint64  `json:"ticks"`
	Ingested       uint64  `json:"mutations_ingested"`
	Applied        uint64  `json:"mutations_applied"`
	Rejected       uint64  `json:"mutations_rejected"`
	Pending        int     `json:"mutations_pending"`
	Checkpoints    uint64  `json:"checkpoints"`
	Incremental    bool    `json:"incremental"`
	Parallelism    int     `json:"parallelism"`
	// Workload-heat plane: the objective's strength, whether reads are
	// being sampled, cumulative samples folded, folds executed, and the
	// accumulator's current shape (vertices with non-zero heat and the
	// maximum decayed heat value).
	WorkloadWeight float64 `json:"workload_weight"`
	HeatRecording  bool    `json:"heat_recording"`
	HeatSamples    uint64  `json:"heat_samples"`
	HeatFolds      uint64  `json:"heat_folds"`
	HeatHotVerts   int     `json:"heat_hot_vertices"`
	HeatMax        float64 `json:"heat_max"`
	// Cluster is present only in cluster mode: this replica's shard
	// identity, decide range, round progress and assignment fingerprint.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Stats assembles the current summary. Cut statistics scan every edge
// (O(|E|)), which is why they live here and on /v1/stats rather than on
// the high-frequency /metrics scrape path.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	g := s.part.Graph()
	asn := s.part.Assignment()
	st := Stats{
		Vertices:       g.NumVertices(),
		Edges:          g.NumEdges(),
		K:              s.cfg.K,
		PartitionSizes: asn.Sizes(),
		CutEdges:       partition.CutEdges(g, asn),
		Imbalance:      partition.Imbalance(asn),
		Iteration:      s.part.Iteration(),
		Converged:      s.part.Converged(),
		DirtyCount:     s.part.DirtyCount(),
		Incremental:    s.cfg.Incremental,
		Parallelism:    s.part.Parallelism(),
	}
	s.mu.RUnlock()
	if st.Edges > 0 {
		st.CutRatio = float64(st.CutEdges) / float64(st.Edges)
	}
	st.Instance = s.instance
	st.RoutingEpoch = s.routing.Load().Epoch
	st.Ticks = s.ticks.Load()
	st.Ingested = s.ingested.Load()
	st.Applied = s.applied.Load()
	st.Rejected = s.rejected.Load()
	st.Checkpoints = s.checkpoints.Load()
	st.Pending, _ = s.PendingMutations()
	st.WorkloadWeight = s.cfg.WorkloadWeight
	st.HeatRecording = s.heatTable.Recording()
	st.HeatSamples = s.heatSamples.Load()
	st.HeatFolds = s.heatFolds.Load()
	st.HeatHotVerts = int(s.heatHot.Load())
	st.HeatMax = math.Float64frombits(s.heatMaxBits.Load())
	st.Cluster = s.clusterStats()
	return st
}

// Placement returns the partition of v as of the current routing
// snapshot, with ok=false when v is not placed there (unknown, removed,
// or still in the ingest queue). It is one atomic pointer load and one
// array read — it never touches the adaptation state lock, so reads
// stay fast while a tick is absorbing a batch. Staleness is bounded by
// the publish points: at most one in-flight tick behind the live
// assignment.
func (s *Server) Placement(v graph.VertexID) (partition.ID, bool) {
	p := s.routing.Load().Table.Of(v)
	s.heatTable.Record(v)
	return p, p != partition.None
}

var _ http.Handler = (*Server)(nil)

package bsp

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Config parameterises the engine.
type Config struct {
	// Workers is the number of compute goroutines executing the vertex
	// sweep each superstep. It is independent of the number of partitions
	// k, which comes from the assignment: partitions are the simulated
	// machines of the cost model (message locality, migration, the
	// per-superstep clock), while workers are real CPU shards that each
	// own a contiguous range of vertex slots (as in Spinner, where the
	// label-propagation kernel scales with workers independent of k).
	// 0 picks runtime.GOMAXPROCS(0). The simulated statistics are
	// identical for every worker count; only wall-clock time changes.
	Workers int
	// Seed drives deterministic per-superstep worker randomness.
	Seed int64
	// Cost prices the simulated cluster; zero value means DefaultCostModel.
	Cost CostModel
	// RecordEvery controls how often the (O(E)) edge-cut statistic is
	// computed: every n supersteps, or never when 0.
	RecordEvery int
	// CheckpointEvery takes a full checkpoint every n supersteps (0 = off);
	// required for failure injection.
	CheckpointEvery int
	// Placer assigns partitions to vertices arriving from the stream; nil
	// means hash placement.
	Placer func(v graph.VertexID, k int) partition.ID
}

// MigrationRequest asks the engine to move vertex V to partition To using
// the deferred protocol.
type MigrationRequest struct {
	V  graph.VertexID
	To partition.ID
}

// Repartitioner is the hook the adaptive partitioning algorithm plugs into:
// it is invoked at every superstep barrier and returns the migrations to
// start. Implementations see a read-only view of the system.
type Repartitioner interface {
	Plan(view *View) []MigrationRequest
}

// View is the read-only system state handed to a Repartitioner.
type View struct{ e *Engine }

// K returns the number of partitions.
func (v *View) K() int { return v.e.k }

// Workers returns the number of compute goroutines. Repartitioning logic
// should almost always use K instead: partition membership, quotas and the
// cost model are all per-partition.
func (v *View) Workers() int { return len(v.e.workers) }

// Superstep returns the superstep whose barrier is executing.
func (v *View) Superstep() int { return v.e.superstep }

// Graph returns the topology. Callers must treat it as read-only.
func (v *View) Graph() *graph.Graph { return v.e.g }

// Addr returns the current addressing table (vertex → partition). Callers
// must treat it as read-only.
func (v *View) Addr() *partition.Assignment { return v.e.addr }

// Migrating reports whether the vertex is already in the deferred
// migration window (decided but not yet physically moved).
func (v *View) Migrating(id graph.VertexID) bool {
	_, ok := v.e.pendingHome[id]
	return ok
}

// WorkerCosts returns each partition's simulated cost from the superstep
// whose barrier is executing — the runtime hot-spot statistics the paper's
// second future-work extension feeds back into balancing. (The paper hosts
// one partition per physical worker, hence the name; compute goroutines do
// not appear in the cost model.) The slice is indexed by partition ID and
// is the caller's to keep: it is copied out of the engine.
func (v *View) WorkerCosts() []float64 {
	if v.e.lastCosts == nil {
		return nil
	}
	return append([]float64(nil), v.e.lastCosts...)
}

// MutatedVertices returns the vertices touched by the mutation batch
// applied at this barrier (added vertices, endpoints of added/removed
// edges, and the ex-neighbours of removed vertices) — the change notices
// an incremental repartitioner seeds its active set from. The slice may
// contain duplicates and IDs that are no longer live; it is the caller's
// to keep. Empty when the barrier applied no mutations.
func (v *View) MutatedVertices() []graph.VertexID {
	if len(v.e.lastMutated) == 0 {
		return nil
	}
	return append([]graph.VertexID(nil), v.e.lastMutated...)
}

type outMsg struct {
	dst graph.VertexID
	src partition.ID // sending vertex's partition: prices local vs remote
	msg any
}

// mergeKey identifies a combinable message group: one source partition,
// one destination vertex. Combining never crosses source partitions —
// separate simulated machines cannot fold their traffic.
type mergeKey struct {
	src partition.ID
	dst graph.VertexID
}

// worker is the per-goroutine compute state. Each superstep every worker
// owns a contiguous range of vertex slots [lo, hi); the engine guarantees
// exclusive access to those vertices during the parallel compute phase.
// Cost accounting stays per-partition — the simulated machines — so the
// numbers a run reports are identical for any worker count.
type worker struct {
	id            int
	lo, hi        int
	outbox        [][]outMsg // indexed by destination partition
	aggPartial    map[string]float64
	aggMaxPartial map[string]float64
	combiner      MessageCombiner
	combineIdx    map[mergeKey]combineRef
	srcPart       partition.ID // partition of the vertex being computed
	computedBy    []int        // computed vertices per partition
	localBy       []int        // local messages per sending partition
	remoteBy      []int        // remote messages per sending partition
	localMsgs     int
	remoteMsgs    int
	computed      int
}

func (w *worker) reset(k int) {
	if w.outbox == nil {
		w.outbox = make([][]outMsg, k)
		w.computedBy = make([]int, k)
		w.localBy = make([]int, k)
		w.remoteBy = make([]int, k)
	}
	for i := range w.outbox {
		w.outbox[i] = w.outbox[i][:0]
	}
	clear(w.computedBy)
	clear(w.localBy)
	clear(w.remoteBy)
	clear(w.aggPartial)
	clear(w.aggMaxPartial)
	if w.combiner != nil {
		clear(w.combineIdx)
	}
	w.localMsgs = 0
	w.remoteMsgs = 0
	w.computed = 0
}

// send buffers a message for the barrier, classifying it local or remote
// by comparing the destination's partition with the sending vertex's — the
// simulated network, independent of which goroutine computes either end.
// With a combiner, messages from the same source partition to the same
// destination fold into one message; the fold completes across workers at
// the barrier (a partition's vertices may be swept by several goroutines),
// where the merged messages are priced, so combiner statistics are also
// invariant under the worker count.
func (w *worker) send(e *Engine, dst graph.VertexID, msg any) {
	p := e.addr.Of(dst)
	if p == partition.None {
		return // destination unknown (removed or never existed): drop
	}
	if w.combiner != nil {
		if w.combine(dst, msg) {
			return
		}
		w.outbox[p] = append(w.outbox[p], outMsg{dst: dst, src: w.srcPart, msg: msg})
		w.combineIdx[mergeKey{src: w.srcPart, dst: dst}] = combineRef{part: int(p), pos: len(w.outbox[p]) - 1}
		return
	}
	if p == w.srcPart {
		w.localMsgs++
		w.localBy[w.srcPart]++
	} else {
		w.remoteMsgs++
		w.remoteBy[w.srcPart]++
	}
	w.outbox[p] = append(w.outbox[p], outMsg{dst: dst, src: w.srcPart, msg: msg})
}

// Engine executes a Program over a partitioned dynamic graph.
type Engine struct {
	cfg  Config
	g    *graph.Graph
	prog Program
	// k is the number of partitions (simulated machines), from the
	// assignment — independent of the number of compute workers.
	k int

	// addr is the addressing table: where messages for a vertex are sent.
	// It is updated at the barrier where a migration is decided.
	addr *partition.Assignment
	// home is the vertex's home partition — the simulated machine that
	// physically holds its state. It lags addr by one superstep for
	// migrating vertices (deferred protocol). -1 marks dead/unplaced
	// slots. Which goroutine computes a vertex is unrelated: workers own
	// slot shards.
	home []int32
	// pendingHome holds migrations awaiting their physical move.
	pendingHome map[graph.VertexID]partition.ID

	values []any
	halted []bool
	// The inbox is flat: the messages delivered at the last barrier sit in
	// one buffer, grouped by destination, and vertex v's are
	// inbox[inboxOff[v] : inboxOff[v]+inboxLen[v]], in delivery order
	// (sending worker, then destination partition, then send order; with
	// a combiner, the merged order, partition 0 to k−1). The buffer is
	// reused every superstep and dropped at a barrier that delivers
	// nothing, so an idle engine holds no message memory. A vertex's
	// length is zeroed once it has computed, and when it is removed.
	inbox    []any
	inboxOff []int32
	inboxLen []int32
	// mutNotice marks vertices whose immediate neighbourhood changed at the
	// most recent barrier. Programs read it during the following compute
	// phase via VertexContext.TopologyChanged; it is cleared at the next
	// barrier, so a notice is visible for exactly one superstep — the
	// program-facing twin of View.MutatedVertices.
	mutNotice []bool

	workers    []*worker
	combiner   MessageCombiner
	aggregated map[string]float64
	repart     Repartitioner
	stream     graph.Stream

	// Barrier-side scratch for completing the combiner fold across
	// workers and pricing the merged messages per source partition.
	mergeIdx      map[mergeKey]int
	mergedBuf     []outMsg
	boxes         [][]outMsg // the outboxes in delivery order
	deliverLocal  []int
	deliverRemote []int

	// Barrier scratch reused across supersteps.
	migCost    []float64 // per-partition migration cost
	moves      []graph.VertexID
	aggTouched map[string]bool

	superstep     int
	costPerVertex float64
	msgsInFlight  int
	lastCosts     []float64 // per-worker cost of the last superstep
	lastMutated   []graph.VertexID
	history       []SuperstepStats

	cp     *checkpoint
	failAt map[int]bool
	wg     sync.WaitGroup
}

// NewEngine builds an engine over g with the given initial assignment
// (adopted, not copied) and vertex program.
func NewEngine(g *graph.Graph, asn *partition.Assignment, prog Program, cfg Config) (*Engine, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("bsp: Workers must be ≥ 0, got %d", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if asn.K() < 1 {
		return nil, fmt.Errorf("bsp: assignment must have k ≥ 1, got %d", asn.K())
	}
	if err := asn.Validate(g); err != nil {
		return nil, fmt.Errorf("bsp: invalid assignment: %w", err)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	e := &Engine{
		cfg:           cfg,
		g:             g,
		prog:          prog,
		k:             asn.K(),
		addr:          asn,
		pendingHome:   make(map[graph.VertexID]partition.ID),
		aggregated:    make(map[string]float64),
		aggTouched:    make(map[string]bool),
		migCost:       make([]float64, asn.K()),
		failAt:        make(map[int]bool),
		costPerVertex: 1,
	}
	if cd, ok := prog.(CostDeclarer); ok {
		e.costPerVertex = cd.CostPerVertex()
	}
	combiner, _ := prog.(MessageCombiner)
	e.combiner = combiner
	if combiner != nil {
		e.mergeIdx = make(map[mergeKey]int)
		e.deliverLocal = make([]int, e.k)
		e.deliverRemote = make([]int, e.k)
	}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			id:            i,
			aggPartial:    make(map[string]float64),
			aggMaxPartial: make(map[string]float64),
			combiner:      combiner,
		}
		if combiner != nil {
			e.workers[i].combineIdx = make(map[mergeKey]combineRef)
		}
	}
	e.grow()
	ctx := &VertexContext{engine: e}
	g.ForEachVertex(func(v graph.VertexID) {
		e.home[v] = int32(asn.Of(v))
		ctx.id = v
		e.values[v] = prog.Init(ctx)
	})
	return e, nil
}

// grow sizes the per-vertex tables to the graph's slot count.
func (e *Engine) grow() {
	for len(e.home) < e.g.NumSlots() {
		e.home = append(e.home, -1)
		e.values = append(e.values, nil)
		e.halted = append(e.halted, false)
		e.inboxOff = append(e.inboxOff, 0)
		e.inboxLen = append(e.inboxLen, 0)
		e.mutNotice = append(e.mutNotice, false)
	}
	e.addr.Grow(e.g.NumSlots())
}

// SetRepartitioner installs the background repartitioning service (nil
// disables adaptation — the static baseline).
func (e *Engine) SetRepartitioner(r Repartitioner) { e.repart = r }

// SetStream installs the dynamic mutation stream consumed one batch per
// superstep barrier.
func (e *Engine) SetStream(s graph.Stream) { e.stream = s }

// Graph returns the engine's topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Addr returns the live addressing table.
func (e *Engine) Addr() *partition.Assignment { return e.addr }

// Superstep returns the number of supersteps executed.
func (e *Engine) Superstep() int { return e.superstep }

// Value returns the current value of a vertex (nil for dead vertices).
func (e *Engine) Value(v graph.VertexID) any {
	if int(v) >= len(e.values) || v < 0 {
		return nil
	}
	return e.values[v]
}

// Aggregated returns the named aggregator's value from the most recent
// superstep that contributed to it (aggregators are sticky; see
// RunSuperstep).
func (e *Engine) Aggregated(name string) float64 { return e.aggregated[name] }

// History returns the stats of every executed superstep. The slice is the
// caller's to keep: it is copied out of the engine.
func (e *Engine) History() []SuperstepStats {
	return append([]SuperstepStats(nil), e.history...)
}

// ScheduleFailure makes the barrier of the given superstep simulate a
// worker crash: the engine rolls back to its last checkpoint (Pregel-style
// synchronous recovery). Requires CheckpointEvery > 0.
func (e *Engine) ScheduleFailure(superstep int) { e.failAt[superstep] = true }

// RunSuperstep executes one superstep (parallel compute, then barrier) and
// returns its stats.
func (e *Engine) RunSuperstep() SuperstepStats {
	t := e.superstep

	// ---- Parallel compute phase ----
	// Workers own contiguous slot shards, re-derived every superstep so
	// the shards track graph growth; partition membership plays no role in
	// ownership (worker/partition decoupling).
	slots := len(e.home)
	for _, w := range e.workers {
		w.reset(e.k)
		w.lo, w.hi = graph.ShardRange(w.id, len(e.workers), slots)
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *worker) {
			defer e.wg.Done()
			e.computeWorker(w, t)
		}(w)
	}
	e.wg.Wait()

	// ---- Barrier phase (single-threaded) ----
	st := SuperstepStats{Superstep: t, CutEdges: -1}

	// 1. Complete physical moves decided at the previous barrier.
	migCost := e.migCost
	clear(migCost)
	if len(e.pendingHome) > 0 {
		moves := e.moves[:0]
		for v := range e.pendingHome {
			moves = append(moves, v)
		}
		slices.Sort(moves)
		e.moves = moves
		for _, v := range moves {
			dst := e.pendingHome[v]
			src := e.home[v]
			if src >= 0 {
				migCost[src] += e.cfg.Cost.PerMigration / 2
			}
			migCost[dst] += e.cfg.Cost.PerMigration / 2
			e.home[v] = int32(dst)
			st.MigrationsCompleted++
		}
		clear(e.pendingHome)
	}

	// 2. Deliver messages sent during this superstep (visible at t+1).
	// With a combiner, first complete the per-source-partition fold
	// across workers — a partition's vertices may have been swept by
	// several goroutines — then price the merged messages, so message
	// statistics match the one-machine-per-partition cluster regardless
	// of the worker count.
	for _, w := range e.workers {
		st.ActiveVertices += w.computed
	}
	var delivered int
	if e.combiner == nil {
		boxes := e.boxes[:0]
		for _, w := range e.workers {
			st.LocalMsgs += w.localMsgs
			st.RemoteMsgs += w.remoteMsgs
			boxes = append(boxes, w.outbox...)
		}
		delivered = e.deliver(boxes)
		clear(boxes)
		e.boxes = boxes[:0]
	} else {
		clear(e.deliverLocal)
		clear(e.deliverRemote)
		merged := e.mergedBuf[:0]
		for p := 0; p < e.k; p++ {
			start := len(merged)
			clear(e.mergeIdx)
			for _, w := range e.workers {
				for _, m := range w.outbox[p] {
					key := mergeKey{src: m.src, dst: m.dst}
					if j, ok := e.mergeIdx[key]; ok {
						merged[j].msg = e.combiner.CombineMessages(merged[j].msg, m.msg)
					} else {
						e.mergeIdx[key] = len(merged)
						merged = append(merged, m)
					}
				}
			}
			for _, m := range merged[start:] {
				if int(m.src) == p {
					st.LocalMsgs++
					e.deliverLocal[m.src]++
				} else {
					st.RemoteMsgs++
					e.deliverRemote[m.src]++
				}
			}
		}
		delivered = e.deliver([][]outMsg{merged})
		clear(merged)
		e.mergedBuf = merged[:0]
	}
	if delivered == 0 {
		// Idle barrier: release everything sized by the last burst.
		e.inbox = nil
		e.mergedBuf = nil
		if e.combiner != nil {
			e.mergeIdx = make(map[mergeKey]int)
		}
		for _, w := range e.workers {
			clear(w.outbox)
			if w.combiner != nil {
				w.combineIdx = make(map[mergeKey]combineRef)
			}
		}
	}

	// 3. Apply the stream's mutation batch, recording the touched
	// vertices for View.MutatedVertices. The notices delivered during this
	// superstep's compute phase (set at the previous barrier) expire first:
	// a notice is visible for exactly one superstep.
	for _, v := range e.lastMutated {
		if int(v) < len(e.mutNotice) {
			e.mutNotice[v] = false
		}
	}
	e.lastMutated = e.lastMutated[:0]
	if e.stream != nil && !e.stream.Done() {
		st.Mutations = e.applyBatch(e.stream.Next())
	}

	// 4. Record per-partition costs of this superstep (compute is done,
	// and migration shares are known from step 1), then run the
	// repartitioner — it sees the load statistics the hot-spot extension
	// consumes — and start migrations (deferred protocol: addressing
	// changes now, the physical move completes next barrier). Costs are
	// accumulated by partition, not by compute goroutine, so the simulated
	// clock is invariant under the worker count.
	if len(e.lastCosts) != e.k {
		e.lastCosts = make([]float64, e.k)
	}
	for j := 0; j < e.k; j++ {
		c := migCost[j]
		for _, w := range e.workers {
			c += float64(w.computedBy[j])*e.cfg.Cost.PerVertex*e.costPerVertex +
				float64(w.localBy[j])*e.cfg.Cost.PerLocalMsg +
				float64(w.remoteBy[j])*e.cfg.Cost.PerRemoteMsg
		}
		if e.combiner != nil {
			// Combined messages are priced after the cross-worker fold
			// (the per-worker counters stay zero).
			c += float64(e.deliverLocal[j])*e.cfg.Cost.PerLocalMsg +
				float64(e.deliverRemote[j])*e.cfg.Cost.PerRemoteMsg
		}
		e.lastCosts[j] = c
	}
	if e.repart != nil {
		reqs := e.repart.Plan(&View{e: e})
		for _, r := range reqs {
			if !e.g.Has(r.V) || r.To < 0 || int(r.To) >= e.k {
				continue
			}
			if e.addr.Of(r.V) == r.To {
				continue
			}
			if _, migrating := e.pendingHome[r.V]; migrating {
				continue // already in the migration window
			}
			e.addr.Assign(r.V, r.To)
			e.pendingHome[r.V] = r.To
			st.MigrationsStarted++
		}
	}

	// 5. Merge aggregators (sums, then maxes). Aggregators are sticky: a
	// name keeps its last written value until a superstep contributes to
	// it again, so results published by programs that then halt (e.g. the
	// clique sizes) survive trailing quiet supersteps.
	touched := e.aggTouched
	clear(touched)
	for _, w := range e.workers {
		for k, v := range w.aggPartial {
			if !touched[k] {
				touched[k] = true
				e.aggregated[k] = 0
			}
			e.aggregated[k] += v
		}
	}
	for _, w := range e.workers {
		for k, v := range w.aggMaxPartial {
			if !touched[k] {
				touched[k] = true
				e.aggregated[k] = v
			} else if v > e.aggregated[k] {
				e.aggregated[k] = v
			}
		}
	}

	// 6. Cost clock: slowest partition (including its share of migration
	// work) plus the barrier constant.
	maxCost := 0.0
	for _, c := range e.lastCosts {
		if c > maxCost {
			maxCost = c
		}
	}
	st.Time = maxCost + e.cfg.Cost.Barrier

	// 7. Checkpoint / failure injection.
	e.superstep++
	if e.failAt[t] && e.cp != nil {
		e.restore()
		st.Recovered = true
		st.Time += float64(e.cfg.Cost.Barrier) * 20 // recovery pause
		delete(e.failAt, t)
	} else if e.cfg.CheckpointEvery > 0 && e.superstep%e.cfg.CheckpointEvery == 0 {
		e.snapshot()
	}

	if e.cfg.RecordEvery > 0 && t%e.cfg.RecordEvery == 0 {
		st.CutEdges = partition.CutEdges(e.g, e.addr)
		if m := e.g.NumEdges(); m > 0 {
			st.CutRatio = float64(st.CutEdges) / float64(m)
		}
	}
	e.msgsInFlight = delivered
	e.history = append(e.history, st)
	return st
}

// deliver moves the deliverable messages of boxes into the flat inbox and
// returns how many it delivered. Messages to vertices that are gone are
// dropped. One counting pass sizes every destination's range, then a
// second pass scatters, so each vertex receives its messages in the order
// boxes lists them. The inbox must be empty on entry: every vertex that
// received messages has computed since (or was removed), zeroing its
// length.
func (e *Engine) deliver(boxes [][]outMsg) int {
	n := 0
	for _, box := range boxes {
		for _, m := range box {
			if e.g.Has(m.dst) {
				e.inboxLen[m.dst]++
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	var off int32
	for v, c := range e.inboxLen {
		e.inboxOff[v] = off
		off += c
		e.inboxLen[v] = 0
	}
	if old := len(e.inbox); n <= cap(e.inbox) {
		e.inbox = e.inbox[:n]
		if n < old {
			clear(e.inbox[n:old]) // drop stale references past the new end
		}
	} else {
		e.inbox = slices.Grow([]any(nil), n)[:n]
	}
	for _, box := range boxes {
		for _, m := range box {
			if e.g.Has(m.dst) {
				e.inbox[e.inboxOff[m.dst]+e.inboxLen[m.dst]] = m.msg
				e.inboxLen[m.dst]++
			}
		}
	}
	return n
}

func (e *Engine) computeWorker(w *worker, t int) {
	ctx := VertexContext{engine: e, worker: w, superstep: t}
	for id := w.lo; id < w.hi; id++ {
		hp := e.home[id]
		if hp < 0 {
			continue // dead or not yet placed
		}
		n := e.inboxLen[id]
		if n == 0 && e.halted[id] {
			continue
		}
		var msgs []any
		if n > 0 {
			off := e.inboxOff[id]
			msgs = e.inbox[off : off+n : off+n]
		}
		e.halted[id] = false
		w.srcPart = partition.ID(hp)
		ctx.id = graph.VertexID(id)
		e.prog.Compute(&ctx, msgs)
		e.inboxLen[id] = 0
		w.computed++
		w.computedBy[hp]++
	}
}

// applyBatch applies a stream batch at the barrier: vertices/edges change,
// new vertices are placed and initialised, removed vertices are retired,
// and every mutation-touched vertex — including the ex-neighbours of a
// removed vertex, which have no surviving edge back to the cause — is
// reactivated and flagged with a topology-change notice for the next
// compute phase.
func (e *Engine) applyBatch(b graph.Batch) int {
	if len(b) == 0 {
		return 0
	}
	applied := e.g.ApplyTouched(b, func(v graph.VertexID) {
		e.lastMutated = append(e.lastMutated, v)
	})
	if applied == 0 {
		return 0
	}
	e.grow()
	ctx := &VertexContext{engine: e, superstep: e.superstep}
	for _, mu := range b {
		switch mu.Kind {
		case graph.MutAddVertex:
			e.place(ctx, mu.U)
		case graph.MutAddEdge:
			e.place(ctx, mu.U)
			e.place(ctx, mu.V)
		case graph.MutRemoveVertex:
			// Messages in flight die with their destination, also when
			// a later mutation of the batch re-adds the ID.
			if mu.U >= 0 && int(mu.U) < len(e.inboxLen) {
				e.inboxLen[mu.U] = 0
			}
			if !e.g.Has(mu.U) && e.addr.Of(mu.U) != partition.None {
				e.addr.Unassign(mu.U)
				e.home[mu.U] = -1
				e.values[mu.U] = nil
				e.halted[mu.U] = false
				e.mutNotice[mu.U] = false
				delete(e.pendingHome, mu.U)
			}
		}
	}
	for _, v := range e.lastMutated {
		if e.g.Has(v) {
			e.halted[v] = false
			e.mutNotice[v] = true
		}
	}
	return applied
}

// place assigns a partition to a vertex arriving from the stream and runs
// the program's Init for it; existing vertices are left untouched.
func (e *Engine) place(ctx *VertexContext, v graph.VertexID) {
	if !e.g.Has(v) || e.addr.Of(v) != partition.None {
		return
	}
	var p partition.ID
	if e.cfg.Placer != nil {
		p = e.cfg.Placer(v, e.k)
	} else {
		p = partition.HashVertex(v, e.k)
	}
	e.addr.Assign(v, p)
	e.home[v] = int32(p)
	ctx.id = v
	e.values[v] = e.prog.Init(ctx)
	e.halted[v] = false
}

// Quiescent reports whether the computation has nothing left to do: no
// active vertices, no undelivered messages, no pending migrations and an
// exhausted (or absent) stream.
func (e *Engine) Quiescent() bool {
	if e.msgsInFlight > 0 || len(e.pendingHome) > 0 {
		return false
	}
	if e.stream != nil && !e.stream.Done() {
		return false
	}
	quiet := true
	e.g.ForEachVertex(func(v graph.VertexID) {
		if !e.halted[v] || e.inboxLen[v] > 0 {
			quiet = false
		}
	})
	return quiet
}

// ResetComputation reinitialises every vertex value via Program.Init and
// reactivates all vertices, keeping the graph, the partitioning and the
// superstep clock intact. The mobile-network use case uses this to rerun
// the clique computation over each buffered window of graph changes while
// the adaptive partitioning persists across runs (paper Section 4.3).
func (e *Engine) ResetComputation() {
	ctx := &VertexContext{engine: e, superstep: e.superstep}
	e.g.ForEachVertex(func(v graph.VertexID) {
		ctx.id = v
		e.values[v] = e.prog.Init(ctx)
		e.halted[v] = false
	})
	clear(e.inboxLen)
	e.inbox = nil
}

// RunSupersteps executes exactly n supersteps and returns their stats.
func (e *Engine) RunSupersteps(n int) []SuperstepStats {
	out := make([]SuperstepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, e.RunSuperstep())
	}
	return out
}

// RunUntilQuiescent executes supersteps until the computation halts (all
// vertices voted, no messages, stream done) or max supersteps elapse. It
// returns the executed stats and whether quiescence was reached.
func (e *Engine) RunUntilQuiescent(max int) ([]SuperstepStats, bool) {
	out := make([]SuperstepStats, 0, 64)
	for i := 0; i < max; i++ {
		out = append(out, e.RunSuperstep())
		if e.Quiescent() {
			return out, true
		}
	}
	return out, false
}

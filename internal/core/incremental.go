package core

import (
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file implements the active-set (frontier) scheduler: with
// Config.Incremental set, an iteration re-examines only vertices whose
// decision inputs could have changed since they last chose to stay,
// instead of sweeping every live vertex.
//
// The stay/request decision of the heuristic depends exclusively on the
// partitions of Γ(v) = {v} ∪ N(v) (Section 2.1); quotas are re-derived
// from global free capacity at every iteration regardless of the
// schedule. A vertex's decision can therefore only change when
//
//   - the graph mutates around it (ApplyBatch marks the mutated vertices
//     and their neighbourhoods dirty, via graph.ApplyTouched),
//   - a neighbour migrates (every granted move re-wakes the mover's
//     neighbourhood at the iteration barrier), or
//   - it never finished deciding: vertices that fail the willingness
//     coin stay scheduled (preserving the stochastic symmetry-breaking),
//     and so do vertices denied only by in-iteration competition for a
//     quota that the free capacities would otherwise admit — the
//     competitors' moves change the odds next iteration.
//
// Requesters denied "hard" — every tied-best destination's per-pair
// quota Q(i,j), derived from free capacity at the start of the
// iteration, is too small for the vertex's weight even before any
// competitor claims it — cannot succeed until capacity shifts. They are
// parked under their desired destinations (activeset.Set.Park) and
// re-woken when a migration departs such a destination (freeing capacity
// there) or when ApplyBatch changes the graph (capacities are re-derived
// from |V|, so every parked vertex re-wakes). This distinction matters:
// parking a soft-denied vertex would forfeit migrations the full sweep
// makes, while keeping hard-denied vertices scheduled would leave a
// permanent residual frontier on converged graphs.
//
// A vertex that evaluates migration and prefers to stay leaves the
// frontier; it is re-woken only by one of the events above. On a
// converged graph the frontier is empty and an iteration costs O(1), so
// steady-state cost is proportional to churn — the property SDP and the
// near-real-time survey demand of a streaming partitioner.
//
// The frontier is drained in ascending vertex-ID order, which keeps both
// execution paths deterministic: the sequential path replays one RNG
// over a deterministic vertex sequence, and the parallel path splits the
// sorted frontier into Config.Parallelism contiguous chunks, each served
// by its shard's own RNG and granted through the same fixed-order atomic
// quota ledger as the full parallel sweep. The vertices kept from the
// previous pass are already ascending (sequential Keep follows drain
// order; the sharded Rebuild concatenates contiguous shard ranges), so
// activeset.Prepare sorts only the W vertices woken since and merges them
// in: O(D + W) per iteration for D scheduled vertices, not a full sort.

// DirtyCount returns the current size of the active set — the number of
// vertices scheduled for re-examination. It is 0 when the scheduler is
// idle (or when Incremental is off).
func (p *Partitioner) DirtyCount() int {
	if p.active == nil {
		return 0
	}
	return p.active.Len()
}

// stepIncremental runs one iteration's decide and grant phases over the
// active set only. Step has already filled p.quota; granted moves are
// left in p.moves for Step to apply at the barrier. It returns the number
// of requests (post-coin, pre-quota) and the number of examined vertices.
func (p *Partitioner) stepIncremental(weight func(graph.VertexID) int) (requested, examined int) {
	p.active.Grow(p.g.NumSlots())
	frontier := p.active.Prepare(p.g.Has)
	examined = len(frontier)
	if examined == 0 {
		return 0, 0
	}
	if p.par > 1 {
		requested = p.stepIncrementalParallel(frontier, weight)
		return requested, examined
	}

	for _, v := range frontier {
		if p.cfg.S < 1 && p.rng.Float64() >= p.cfg.S {
			p.active.Keep(v) // unwilling: stays scheduled
			continue
		}
		cur := p.asn.Of(v)
		best := p.bestPartitions(v, cur)
		if best == nil {
			// Settled: only a mutation or a neighbour's move re-wakes it.
			p.active.Unschedule(v)
			continue
		}
		requested++
		p.rng.Shuffle(len(best), func(i, j int) { best[i], best[j] = best[j], best[i] })
		w := weight(v)
		granted := false
		for _, dst := range best {
			if p.cfg.DisableQuotas {
				p.moves = append(p.moves, move{v: v, from: cur, to: dst})
				granted = true
				break
			}
			if p.quota[cur][dst] >= w {
				p.quota[cur][dst] -= w
				p.moves = append(p.moves, move{v: v, from: cur, to: dst})
				granted = true
				break
			}
		}
		switch {
		case granted:
			// A mover re-settles after its move applies at the barrier.
			p.active.Keep(v)
		case p.hardDenied(best, w):
			// No destination can admit v until capacity shifts: park.
			p.active.Park(v, best)
		default:
			// Denied only by in-iteration competition — the competitors'
			// moves change the odds, so retry next iteration.
			p.active.Keep(v)
		}
	}
	p.active.Commit()
	return requested, examined
}

// hardDenied reports whether a request of weight w cannot be granted
// towards any of dsts even without competition: the iteration-start
// per-pair quota of every destination is below w.
func (p *Partitioner) hardDenied(dsts []partition.ID, w int) bool {
	for _, dst := range dsts {
		if p.quotaCol[dst] >= w {
			return false
		}
	}
	return true
}

// stepIncrementalParallel is the sharded form: the sorted frontier is cut
// into contiguous chunks, one per shard, decided concurrently, then
// granted through the same fixed-order atomic ledger as the full parallel
// sweep. Determinism holds for a fixed shard count because the frontier
// content, the split, and each shard's RNG stream are all deterministic.
func (p *Partitioner) stepIncrementalParallel(frontier []graph.VertexID, weight func(graph.VertexID) int) int {
	k := p.cfg.K
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.ledger[i*k+j] = int64(p.quota[i][j])
		}
	}
	p.forEachShard(func(s int, sh *coreShard) {
		lo, hi := graph.ShardRange(s, p.par, len(frontier))
		sh.decideFrontier(p, frontier[lo:hi], weight)
	})
	requested := 0
	for _, sh := range p.shards {
		requested += sh.requested
	}
	p.grantAll()
	// Rebuild the frontier from the shards' keep lists (contiguous
	// ascending chunks, so the next Prepare need not re-sort them; dirty
	// bits of kept vertices are still set, so barrier-side wakes dedupe
	// against them), then
	// merge the shards' park buffers. Hard denials are decided against
	// the read-only iteration-start quotas, so they are competition- and
	// interleaving-independent; the shared park lists are only written
	// here, at the barrier.
	keeps := make([][]graph.VertexID, len(p.shards))
	for i, sh := range p.shards {
		keeps[i] = sh.keep
	}
	p.active.Rebuild(keeps...)
	for _, sh := range p.shards {
		for _, pk := range sh.parkBuf {
			p.active.Park(pk.v, sh.parkDests[pk.off:pk.off+pk.n])
		}
	}
	return requested
}

// decideFrontier is the frontier-driven form of decide: same per-vertex
// logic, but iterating a chunk of the sorted active set instead of a slot
// range. Kept (still-dirty) vertices land in sh.keep; vertices that chose
// to stay are unscheduled (distinct elements of the bitmap, so shards
// race on nothing) and hard-denied ones queue in the shard's park buffer
// for barrier-side parking.
func (sh *coreShard) decideFrontier(p *Partitioner, chunk []graph.VertexID, weight func(graph.VertexID) int) {
	sh.requested = 0
	sh.candBuf = sh.candBuf[:0]
	sh.keep = sh.keep[:0]
	sh.parkBuf = sh.parkBuf[:0]
	sh.parkDests = sh.parkDests[:0]
	sh.settled = sh.settled[:0]
	for i := range sh.reqs {
		sh.reqs[i] = sh.reqs[i][:0]
	}
	s := p.cfg.S
	for _, v := range chunk {
		if s < 1 && sh.rng.Float64() >= s {
			sh.keep = append(sh.keep, v)
			continue
		}
		cur := p.asn.Of(v)
		sh.tied = p.scoreBest(v, cur, sh.counts, sh.countsF, sh.tied)
		if len(sh.tied) == 0 {
			// Unscheduling only clears a dirty bit (idempotent), so the
			// cluster path can safely re-apply broadcast settles on top
			// of this inline one.
			p.active.Unschedule(v)
			if sh.capture {
				sh.settled = append(sh.settled, v)
			}
			continue
		}
		sh.requested++
		w := weight(v)
		if !p.cfg.DisableQuotas && p.hardDenied(sh.tied, w) {
			// No destination can admit v regardless of competition; park
			// at the barrier instead of queueing a doomed request. The
			// scheduled bit stays set until the barrier-side Park so
			// concurrent wakes keep deduping correctly.
			off := int32(len(sh.parkDests))
			sh.parkDests = append(sh.parkDests, sh.tied...)
			sh.parkBuf = append(sh.parkBuf, shardPark{v: v, off: off, n: int32(len(sh.tied))})
			continue
		}
		sh.rng.Shuffle(len(sh.tied), func(i, j int) { sh.tied[i], sh.tied[j] = sh.tied[j], sh.tied[i] })
		off := int32(len(sh.candBuf))
		sh.candBuf = append(sh.candBuf, sh.tied...)
		sh.reqs[cur] = append(sh.reqs[cur], shardReq{v: v, off: off, n: int32(len(sh.tied)), w: int32(w)})
		sh.keep = append(sh.keep, v)
	}
}

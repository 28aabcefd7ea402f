package core

import (
	"sync"

	"xdgp/internal/graph"
)

// This file implements the decide half of an iteration. The per-vertex
// decision reads only the vertex's neighbourhood, the assignment and the
// iteration-start quotas, and draws its randomness from its own keyed
// stream (draw.go), so the sweep splits into Config.Parallelism shards
// that decide concurrently and race on nothing:
//
//   - a full sweep gives shard s the contiguous slot range
//     graph.ShardRange(s, P, slots);
//   - an incremental iteration gives it the same range of the sorted
//     frontier.
//
// Each shard fills its own ShardDecision; a single shard decides inline,
// with no goroutine. The decisions are then granted and applied once by
// apply (core.go), the same code the cluster apply runs. Because neither
// the draws nor the grant order depend on where the range boundaries
// fall, every shard count — and every cluster size — computes the same
// assignment.

// coreShard is one shard's scratch: a scorer sharing the partitioner's
// heat view, and the decision it fills.
type coreShard struct {
	scorer Scorer
	dec    ShardDecision
}

// Step executes one iteration of the heuristic and returns its stats:
// every shard decides its share into its ShardDecision, then apply grants
// and applies the decisions once.
func (p *Partitioner) Step() IterationStats {
	weight := p.beginIteration()
	frontier := p.prepareFrontier()
	if n := len(p.shards); n == 1 {
		p.decideShard(p.shards[0], 0, 1, frontier, weight)
	} else {
		var wg sync.WaitGroup
		for s, sh := range p.shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.decideShard(sh, s, n, frontier, weight)
			}()
		}
		wg.Wait()
	}
	return p.apply(p.decs)
}

// prepareFrontier returns the sorted active set an incremental iteration
// decides, or nil on a full sweep (and when nothing can move).
func (p *Partitioner) prepareFrontier() []graph.VertexID {
	if p.active == nil || p.cfg.K <= 1 {
		return nil
	}
	p.active.Grow(p.g.NumSlots())
	return p.active.Prepare(p.g.Has)
}

// decideShard fills sh's decision with shard s of n's share of the
// iteration: its slot range on a full sweep, its chunk of frontier when
// incremental. It reads the graph, the assignment and the quotas only.
func (p *Partitioner) decideShard(sh *coreShard, s, n int, frontier []graph.VertexID, weight func(graph.VertexID) int) {
	sh.dec.reset(p.cfg.K)
	if p.cfg.K <= 1 {
		return // single partition: nothing can move
	}
	key := IterationDraws(p.cfg.Seed, p.iter)
	if p.active != nil {
		lo, hi := graph.ShardRange(s, n, len(frontier))
		sh.dec.Examined = hi - lo
		for _, v := range frontier[lo:hi] {
			sh.decide(p, v, key, weight)
		}
		return
	}
	lo, hi := graph.ShardRange(s, n, p.g.NumSlots())
	for id := lo; id < hi; id++ {
		if v := graph.VertexID(id); p.g.Has(v) {
			sh.decide(p, v, key, weight)
		}
	}
}

// decide evaluates vertex v: the willingness coin, then the scorer's
// tied best destinations, shuffled, queued as a request grouped by v's
// current partition. When incremental it also sorts v for the barrier:
// kept on the frontier (unwilling, or requesting), settled (prefers to
// stay) or parked (hard-denied: no destination's iteration-start quota
// admits it, whatever the competition).
func (sh *coreShard) decide(p *Partitioner, v graph.VertexID, key DrawKey, weight func(graph.VertexID) int) {
	d := &sh.dec
	inc := p.active != nil
	r := key.Vertex(v)
	if p.cfg.S < 1 && r.Float64() >= p.cfg.S {
		if inc {
			d.Keeps = append(d.Keeps, v) // unwilling: stays scheduled
		}
		return
	}
	cur := p.asn.Of(v)
	best := sh.scorer.Best(p.g, p.asn, v, cur)
	if best == nil {
		if inc {
			// Settled: only a mutation or a neighbour's move re-wakes it.
			d.Settled = append(d.Settled, v)
		}
		return
	}
	d.Requested++
	w := weight(v)
	if inc && !p.cfg.DisableQuotas && p.hardDenied(best, w) {
		off := int32(len(d.ParkDests))
		d.ParkDests = append(d.ParkDests, best...)
		d.Parks = append(d.Parks, ClusterPark{V: v, Off: off, N: int32(len(best))})
		return
	}
	r.Shuffle(best)
	off := int32(len(d.Cands))
	d.Cands = append(d.Cands, best...)
	d.Reqs[cur] = append(d.Reqs[cur], ClusterReq{V: v, Off: off, N: int32(len(best)), W: int32(w)})
	if inc {
		// A mover re-settles after its move applies at the barrier; a
		// competition-denied requester retries next iteration.
		d.Keeps = append(d.Keeps, v)
	}
}

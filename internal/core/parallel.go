package core

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file implements the parallel form of the heuristic's iteration. The
// per-vertex decision is embarrassingly parallel — each vertex inspects
// only its own neighbourhood — so the sweep is sharded across
// Config.Parallelism goroutines. Determinism is preserved for a fixed
// shard count:
//
//   - Decide phase: each shard owns a contiguous range of vertex slots and
//     its own RNG (a PCG stream selected by Config.Seed and the shard
//     index), so coin flips and tie-break shuffles replay identically run
//     to run.
//
//   - Grant phase: candidate requests claim per-pair quotas Q(i,j) from an
//     atomic quota ledger. A claim only ever decrements row i = the
//     vertex's current partition, so rows are distributed over the grant
//     goroutines and each counter sees a single claimant processing its
//     requests in a fixed order (shard-major, then slot order) — the
//     outcome cannot depend on goroutine interleaving.
//
// Granted moves are applied simultaneously at the iteration barrier by
// Step, exactly as in the sequential path, preserving the paper's BSP
// semantics.

// coreShard is the per-goroutine state of the parallel sweep.
type coreShard struct {
	rng       *rand.Rand
	src       *rand.PCG // rng's source; serializable for checkpoint/restore
	scorer    Scorer
	candBuf   []partition.ID   // arena backing every request's candidate list
	reqs      [][]shardReq     // migration requests grouped by source partition
	keep      []graph.VertexID // frontier vertices staying dirty (incremental mode)
	parkBuf   []shardPark      // hard-denied vertices to park at the barrier
	parkDests []partition.ID   // arena backing the park entries' destination lists
	settled   []graph.VertexID // cluster mode: vertices that chose to stay, for broadcast
	capture   bool             // record settled vertices (cluster decide only)
	requested int
}

// shardPark is one hard-denied vertex awaiting barrier-side parking: its
// tied-best destinations live in the shard's parkDests at [off, off+n).
type shardPark struct {
	v   graph.VertexID
	off int32
	n   int32
}

// shardReq is one vertex's migration request: the shuffled tied-best
// destinations live in the shard's candBuf at [off, off+n).
type shardReq struct {
	v   graph.VertexID
	off int32
	n   int32
	w   int32 // quota units the move consumes (1, or degree when edge-balanced)
}

func newCoreShard(seed int64, idx, k int, scorer Scorer) *coreShard {
	// The shard index selects a distinct PCG stream; see newPCG. The
	// per-shard generators stay a pure function of (seed, idx).
	src := newPCG(seed, idx+1)
	return &coreShard{
		rng:    rand.New(src),
		src:    src,
		scorer: scorer,
		reqs:   make([][]shardReq, k),
	}
}

// decide runs the shard's share of the sweep: slots [lo, hi). It only
// reads the graph and the assignment, so shards race on nothing.
func (sh *coreShard) decide(p *Partitioner, lo, hi int, weight func(graph.VertexID) int) {
	sh.requested = 0
	sh.candBuf = sh.candBuf[:0]
	for i := range sh.reqs {
		sh.reqs[i] = sh.reqs[i][:0]
	}
	s := p.cfg.S
	for id := lo; id < hi; id++ {
		v := graph.VertexID(id)
		if !p.g.Has(v) {
			continue
		}
		if s < 1 && sh.rng.Float64() >= s {
			continue // unwilling this iteration
		}
		cur := p.asn.Of(v)
		best := sh.scorer.Best(p.g, p.asn, v, cur)
		if best == nil {
			continue // current partition is among the candidates: stay
		}
		sh.requested++
		sh.rng.Shuffle(len(best), func(i, j int) { best[i], best[j] = best[j], best[i] })
		off := int32(len(sh.candBuf))
		sh.candBuf = append(sh.candBuf, best...)
		sh.reqs[cur] = append(sh.reqs[cur], shardReq{v: v, off: off, n: int32(len(best)), w: int32(weight(v))})
	}
}

// stepParallel runs one iteration's decide and grant phases across the
// shards. Step has already filled p.quota from the free capacities at the
// start of the iteration; stepParallel loads them into the atomic ledger,
// fans out, and leaves the granted moves in p.moves for Step to apply at
// the barrier. It returns the number of requests (post-coin, pre-quota).
func (p *Partitioner) stepParallel(weight func(graph.VertexID) int) int {
	k := p.cfg.K
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.ledger[i*k+j] = int64(p.quota[i][j])
		}
	}

	// Decide: contiguous slot ranges, one per shard.
	slots := p.g.NumSlots()
	p.forEachShard(func(s int, sh *coreShard) {
		lo, hi := graph.ShardRange(s, p.par, slots)
		sh.decide(p, lo, hi, weight)
	})
	requested := 0
	for _, sh := range p.shards {
		requested += sh.requested
	}
	p.grantAll()
	return requested
}

// forEachShard fans fn out over the shards, one goroutine each, and waits.
func (p *Partitioner) forEachShard(fn func(s int, sh *coreShard)) {
	var wg sync.WaitGroup
	for s, sh := range p.shards {
		wg.Add(1)
		go func(s int, sh *coreShard) {
			defer wg.Done()
			fn(s, sh)
		}(s, sh)
	}
	wg.Wait()
}

// grantAll runs the grant phase over the shards' request queues: row g of
// the ledger is claimed only by goroutine g%G, in shard-major order —
// deterministic for a fixed shard count. Granted moves land in p.moves.
func (p *Partitioner) grantAll() {
	k := p.cfg.K
	grantees := k
	if p.par < grantees {
		grantees = p.par
	}
	if p.grantBufs == nil {
		p.grantBufs = make([][]move, 0, grantees)
	}
	for len(p.grantBufs) < grantees {
		p.grantBufs = append(p.grantBufs, nil)
	}
	var wg sync.WaitGroup
	for gi := 0; gi < grantees; gi++ {
		p.grantBufs[gi] = p.grantBufs[gi][:0]
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			p.grantRows(gi, grantees)
		}(gi)
	}
	wg.Wait()
	for gi := 0; gi < grantees; gi++ {
		p.moves = append(p.moves, p.grantBufs[gi]...)
	}
}

// grantRows claims quotas for every request whose source partition i
// satisfies i % grantees == gi, appending granted moves to p.grantBufs[gi].
func (p *Partitioner) grantRows(gi, grantees int) {
	k := p.cfg.K
	out := p.grantBufs[gi]
	for i := gi; i < k; i += grantees {
		from := partition.ID(i)
		for _, sh := range p.shards {
			for _, r := range sh.reqs[i] {
				cands := sh.candBuf[r.off : r.off+r.n]
				for _, dst := range cands {
					if p.cfg.DisableQuotas {
						out = append(out, move{v: r.v, from: from, to: dst})
						break
					}
					idx := i*k + int(dst)
					if atomic.AddInt64(&p.ledger[idx], -int64(r.w)) >= 0 {
						out = append(out, move{v: r.v, from: from, to: dst})
						break
					}
					// Restore the over-claim and try the next tied
					// destination; no quota left anywhere means stay
					// (worst-case capacity rule).
					atomic.AddInt64(&p.ledger[idx], int64(r.w))
				}
			}
		}
	}
	p.grantBufs[gi] = out
}

package core

import (
	"sync"

	"xdgp/internal/graph"
)

// This file runs the decide half of an iteration across shards. The
// decider (decide.go) reads only a vertex's neighbourhood, the assignment
// and the iteration-start quotas, and draws its randomness from the
// vertex's own keyed stream (draw.go), so the sweep splits into
// Config.Parallelism shards that decide concurrently and race on nothing:
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
	p.begin()
	frontier := p.prepareFrontier()
	if n := len(p.shards); n == 1 {
		sh := p.shards[0]
		p.d.Decide(&sh.scorer, &sh.dec, 0, 1, frontier)
	} else {
		var wg sync.WaitGroup
		for s, sh := range p.shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.d.Decide(&sh.scorer, &sh.dec, s, n, frontier)
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

package core

import (
	"fmt"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file splits one heuristic iteration into the two halves a
// multi-process cluster needs: a local decide phase that produces one
// shard's ShardDecision, and a global apply phase that merges every
// shard's decision and runs the grant + barrier — the same apply that
// Step runs on its in-process shards' decisions.
//
// The cluster is a deterministic replicated state machine. Every replica
// holds the full graph and the full assignment; replica i decides only
// its contiguous graph.ShardRange slice of n, exchanges the resulting
// ShardDecision with its peers, and then every replica applies the
// identical merged outcome. A vertex's draws are keyed by (Seed,
// iteration, v) and the grant walks rows, then slots, so n cooperating
// processes compute byte-identical assignments to one process at any
// Parallelism — the property the cluster tests and ci/cluster-smoke pin.

// ClusterReq is one vertex's migration request inside a ShardDecision:
// the shuffled tied-best destinations live in the decision's Cands
// arena at [Off, Off+N).
type ClusterReq struct {
	V   graph.VertexID
	Off int32
	N   int32
	W   int32 // quota units the move consumes (1, or degree when edge-balanced)
}

// ClusterPark is one hard-denied vertex inside a ShardDecision: its
// tied-best destinations live in the decision's ParkDests arena at
// [Off, Off+N). Parked vertices leave the frontier until capacity frees
// up at one of those destinations.
type ClusterPark struct {
	V   graph.VertexID
	Off int32
	N   int32
}

// ShardDecision is one shard's complete contribution to one iteration:
// everything the apply needs to reproduce the grant and barrier phases.
// A decision returned by StepClusterDecide aliases the partitioner's
// scratch — valid until the next decide on it, so encode (or copy)
// before stepping again.
type ShardDecision struct {
	// Examined is the number of vertices this shard decided: the live
	// vertices of its slot range, or its frontier chunk when incremental.
	Examined int
	// Requested counts post-coin, pre-quota migration requests.
	Requested int
	// Reqs groups the requests by source partition (len K), in slot
	// order within each group — the order the grant loop consumes.
	Reqs [][]ClusterReq
	// Cands is the arena backing every request's candidate list.
	Cands []partition.ID
	// Keeps lists frontier vertices staying dirty (incremental mode);
	// every other vertex of the shard's chunk leaves the frontier at the
	// barrier.
	Keeps []graph.VertexID
	// Parks lists hard-denied vertices with ParkDests as their
	// destination arena (incremental mode).
	Parks     []ClusterPark
	ParkDests []partition.ID
}

// reset empties d for a decide over k partitions, keeping its buffers.
func (d *ShardDecision) reset(k int) {
	if len(d.Reqs) != k {
		d.Reqs = make([][]ClusterReq, k)
	}
	for i := range d.Reqs {
		d.Reqs[i] = d.Reqs[i][:0]
	}
	*d = ShardDecision{
		Reqs: d.Reqs, Cands: d.Cands[:0], Keeps: d.Keeps[:0],
		Parks: d.Parks[:0], ParkDests: d.ParkDests[:0],
	}
}

// StepClusterDecide runs the decide half of one iteration for shard of
// an n-shard cluster: the preamble (capacity + quota refresh) runs
// exactly as in Step, then only the shard's slice of the sweep (or of the
// sorted frontier, in incremental mode) is decided. The returned decision
// aliases the partitioner's scratch — encode it before the next decide.
// Pair every call with StepClusterApply on the merged decisions of all n
// shards, with no graph or assignment mutations in between.
func (p *Partitioner) StepClusterDecide(shard, n int) (*ShardDecision, error) {
	if shard < 0 || shard >= n {
		return nil, fmt.Errorf("core: cluster shard %d out of range [0,%d)", shard, n)
	}
	p.begin()
	sh := p.shards[0]
	p.d.Decide(&sh.scorer, &sh.dec, shard, n, p.prepareFrontier())
	return &sh.dec, nil
}

// StepClusterApply completes the iteration begun by StepClusterDecide:
// decisions must hold one entry per shard, in shard order, merged
// identically on every replica. They are checked, then granted and
// applied exactly as Step applies its own. Every replica executing this
// on identical decisions ends the iteration in an identical state.
func (p *Partitioner) StepClusterApply(decisions []*ShardDecision) (IterationStats, error) {
	if len(decisions) == 0 {
		return IterationStats{}, fmt.Errorf("core: cluster apply got no decisions")
	}
	k := p.cfg.K
	for _, d := range decisions {
		if d == nil {
			return IterationStats{}, fmt.Errorf("core: cluster apply got a nil decision")
		}
		// An empty-frontier (or K ≤ 1) decision may carry no request
		// groups at all; anything else must group by partition.
		if len(d.Reqs) != 0 && len(d.Reqs) != k {
			return IterationStats{}, fmt.Errorf("core: cluster decision groups requests into %d partitions, want %d", len(d.Reqs), k)
		}
		for _, reqs := range d.Reqs {
			for _, r := range reqs {
				if r.Off < 0 || r.N < 0 || int(r.Off)+int(r.N) > len(d.Cands) {
					return IterationStats{}, fmt.Errorf("core: cluster request candidates out of range")
				}
				for _, dst := range d.Cands[r.Off : r.Off+r.N] {
					if dst < 0 || int(dst) >= k {
						return IterationStats{}, fmt.Errorf("core: cluster request destination %d out of range", dst)
					}
				}
			}
		}
		for _, pk := range d.Parks {
			if pk.Off < 0 || pk.N < 0 || int(pk.Off)+int(pk.N) > len(d.ParkDests) {
				return IterationStats{}, fmt.Errorf("core: cluster park destinations out of range")
			}
		}
		for _, v := range d.Keeps {
			if v < 0 || int(v) >= p.g.NumSlots() {
				return IterationStats{}, fmt.Errorf("core: cluster keep %d outside the vertex table", v)
			}
		}
	}
	return p.apply(decisions), nil
}

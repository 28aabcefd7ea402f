package core

import (
	"fmt"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file splits one heuristic iteration into the two halves a
// multi-process cluster needs: a local decide phase that produces one
// shard's migration requests, and a global apply phase that merges every
// shard's requests and runs the grant + barrier exactly as the
// single-process parallel path would.
//
// The cluster is a deterministic replicated state machine. Every replica
// holds the full graph, the full assignment, and all N per-shard RNG
// streams (Parallelism is pinned to the shard count), but replica i only
// ever *advances* stream i: it runs decide for its own contiguous
// graph.ShardRange slice, exchanges the resulting ShardDecision with its
// peers, and then every replica applies the identical merged outcome.
// Because the decide phase is a pure function of (seed, iteration,
// graph, assignment) and the apply phase below reproduces the exact
// grant order of the in-process atomic ledger, N cooperating processes
// compute byte-identical assignments to one process running with
// Parallelism = N — the property the cluster tests and ci/cluster-smoke
// pin.
//
// Grant-order equivalence: grantAll distributes ledger rows (source
// partitions) over goroutines so each row is claimed by exactly one
// claimant, which walks the requests shard-major then slot-major. Rows
// are independent (a request with source i only ever decrements row i),
// so a plain sequential loop over rows 0..k-1 × shards 0..N-1 — the loop
// in StepClusterApply — grants the identical request set. The resulting
// move *order* differs from the concatenated grant buffers, which is
// harmless: move application is order-independent (assignments touch
// distinct vertices, dirty-bit marks and unparks are set-like and the
// next Prepare sorts the frontier).

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

// ShardDecision is one shard's complete contribution to one cluster
// iteration: everything the other replicas need to reproduce the grant
// and barrier phases without re-running this shard's RNG stream. The
// slices alias the shard's scratch buffers — valid until the next decide
// on the same partitioner, so encode (or copy) before stepping again.
type ShardDecision struct {
	// Examined is the number of frontier slots this shard's chunk
	// covered (incremental mode; the full sweep reports vertices
	// globally at apply time).
	Examined int
	// Requested counts post-coin, pre-quota migration requests.
	Requested int
	// Reqs groups the requests by source partition (len K), in slot
	// order within each group — the order the grant loop consumes.
	Reqs [][]ClusterReq
	// Cands is the arena backing every request's candidate list.
	Cands []partition.ID
	// Settled lists frontier vertices that chose to stay (incremental
	// mode): every replica unschedules them at the barrier.
	Settled []graph.VertexID
	// Keeps lists frontier vertices staying dirty (incremental mode).
	Keeps []graph.VertexID
	// Parks lists hard-denied vertices with ParkDests as their
	// destination arena (incremental mode).
	Parks     []ClusterPark
	ParkDests []partition.ID
}

// StepClusterDecide runs the decide half of one iteration for a single
// shard: the preamble (capacity + quota refresh) runs exactly as in
// Step, then only shard's slice of the sweep (or of the sorted frontier,
// in incremental mode) is decided, advancing only that shard's RNG
// stream. The returned decision aliases shard scratch — encode it before
// the next decide. Pair every call with StepClusterApply on the merged
// decisions of all shards, with no graph or assignment mutations in
// between.
func (p *Partitioner) StepClusterDecide(shard int) (*ShardDecision, error) {
	if shard < 0 || shard >= p.par {
		return nil, fmt.Errorf("core: cluster shard %d out of range [0,%d)", shard, p.par)
	}
	weight := p.beginIteration()
	d := &ShardDecision{}
	if p.cfg.K <= 1 {
		return d, nil // single partition: nothing can move
	}
	sh := p.shards[shard]
	sh.capture = true
	defer func() { sh.capture = false }()
	if p.cfg.Incremental {
		p.active.Grow(p.g.NumSlots())
		frontier := p.active.Prepare(p.g.Has)
		if len(frontier) == 0 {
			return d, nil
		}
		lo, hi := graph.ShardRange(shard, p.par, len(frontier))
		sh.decideFrontier(p, frontier[lo:hi], weight)
		d.Examined = hi - lo
	} else {
		lo, hi := graph.ShardRange(shard, p.par, p.g.NumSlots())
		sh.decide(p, lo, hi, weight)
	}
	d.Requested = sh.requested
	d.Cands = sh.candBuf
	d.Reqs = make([][]ClusterReq, p.cfg.K)
	for i, reqs := range sh.reqs {
		if len(reqs) == 0 {
			continue
		}
		out := make([]ClusterReq, len(reqs))
		for j, r := range reqs {
			out[j] = ClusterReq{V: r.v, Off: r.off, N: r.n, W: r.w}
		}
		d.Reqs[i] = out
	}
	d.Settled = sh.settled
	d.Keeps = sh.keep
	d.ParkDests = sh.parkDests
	if len(sh.parkBuf) > 0 {
		d.Parks = make([]ClusterPark, len(sh.parkBuf))
		for j, pk := range sh.parkBuf {
			d.Parks[j] = ClusterPark{V: pk.v, Off: pk.off, N: pk.n}
		}
	}
	return d, nil
}

// StepClusterApply completes the iteration begun by StepClusterDecide:
// decisions must hold one entry per shard, in shard order, merged
// identically on every replica. The grant loop reproduces the atomic
// ledger's deterministic order (see the file comment), then the
// incremental barrier and the simultaneous move application run exactly
// as in Step. Every replica executing this on identical decisions ends
// the iteration in an identical state.
func (p *Partitioner) StepClusterApply(decisions []*ShardDecision) (IterationStats, error) {
	if len(decisions) != p.par {
		return IterationStats{}, fmt.Errorf("core: cluster apply got %d decisions, want %d", len(decisions), p.par)
	}
	k := p.cfg.K
	p.moves = p.moves[:0]
	requested, examined := 0, 0
	for _, d := range decisions {
		if d == nil {
			return IterationStats{}, fmt.Errorf("core: cluster apply got a nil decision")
		}
		// An empty-frontier (or K ≤ 1) decide legitimately carries no
		// request groups at all; anything else must group by partition.
		if len(d.Reqs) != 0 && len(d.Reqs) != k {
			return IterationStats{}, fmt.Errorf("core: cluster decision groups requests into %d partitions, want %d", len(d.Reqs), k)
		}
		requested += d.Requested
		examined += d.Examined
	}
	if !p.cfg.Incremental && k > 1 {
		examined = p.g.NumVertices()
	}

	if k > 1 {
		// Grant: rows are independent, so a sequential row-major walk in
		// shard-major request order grants the exact set the in-process
		// atomic ledger would.
		for i := 0; i < k; i++ {
			from := partition.ID(i)
			for _, d := range decisions {
				if i >= len(d.Reqs) {
					continue
				}
				for _, r := range d.Reqs[i] {
					if r.Off < 0 || r.N < 0 || int(r.Off)+int(r.N) > len(d.Cands) {
						return IterationStats{}, fmt.Errorf("core: cluster request candidates out of range")
					}
					cands := d.Cands[r.Off : r.Off+r.N]
					for _, dst := range cands {
						if dst < 0 || int(dst) >= k {
							return IterationStats{}, fmt.Errorf("core: cluster request destination %d out of range", dst)
						}
					}
					p.claim(r.V, from, cands, int(r.W))
				}
			}
		}
	}

	if p.cfg.Incremental && examined > 0 {
		// Barrier bookkeeping in the same order as stepIncrementalParallel:
		// settles, then the frontier rebuild from the keep lists, then the
		// hard-denied parks — all in shard order.
		for _, d := range decisions {
			for _, v := range d.Settled {
				p.active.Unschedule(v)
			}
		}
		keeps := make([][]graph.VertexID, len(decisions))
		for i, d := range decisions {
			keeps[i] = d.Keeps
		}
		p.active.Rebuild(keeps...)
		for _, d := range decisions {
			for _, pk := range d.Parks {
				if int(pk.Off) < 0 || int(pk.Off)+int(pk.N) > len(d.ParkDests) {
					return IterationStats{}, fmt.Errorf("core: cluster park destinations out of range")
				}
				p.active.Park(pk.V, d.ParkDests[pk.Off:pk.Off+pk.N])
			}
		}
	}

	return p.finishIteration(requested, examined), nil
}

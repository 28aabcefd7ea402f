package apps

import (
	"slices"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
)

// StreamingPageRank maintains PageRank under churn without global
// restarts. It solves the unnormalised system
//
//	rank(v) = (1 − d) + d · Σ_{u ∈ N(v)} rank(u) / deg(u)
//
// whose teleport term is per-vertex rather than 1/N, so a topology change
// perturbs the fixed point only around the mutation: mass is re-seeded at
// the mutated vertices and their frontier, and updates propagate only
// while they exceed Tol (each hop damps the residual by d, so waves die
// geometrically). Every vertex remembers its in-contributions per sender;
// a mutation notice prunes contributions from ex-neighbours and
// re-announces the vertex's own share, and quiescence implies the ranks
// match the from-scratch fixed point to within the tolerance.
type StreamingPageRank struct {
	// Damping is the damping factor (0.85 classically).
	Damping float64
	// Tol is the share-change threshold below which a vertex does not
	// re-announce; it bounds both the convergence tail and the distance
	// from the exact fixed point.
	Tol float64
}

// NewStreamingPageRank returns the program with the classic damping of
// 0.85 and a 1e-10 announcement tolerance.
func NewStreamingPageRank() *StreamingPageRank {
	return &StreamingPageRank{Damping: 0.85, Tol: 1e-10}
}

// prContrib is one remembered in-contribution: the sending neighbour and
// its last announced share.
type prContrib struct {
	from  graph.VertexID
	share float64
}

// prState is the mutable per-vertex value: current rank, the share last
// announced to neighbours, and the in-contributions sorted by sender (the
// fixed summation order that keeps results byte-identical across worker
// counts).
type prState struct {
	rank   float64
	share  float64
	booted bool
	in     []prContrib
}

// prMsg announces the sender's absolute share; the receiver replaces any
// previous contribution from the same sender. Absolute (not delta)
// announcements make delivery idempotent, which is what lets repair and
// regular propagation share one code path. The program has no combiner:
// contributions need per-sender identity, and without one the engine
// delivers a vertex's messages in ascending sender order.
type prMsg struct {
	share float64
	from  graph.VertexID
}

// Init starts the vertex at the bare teleport mass.
func (p *StreamingPageRank) Init(ctx *bsp.VertexContext[prMsg]) any {
	return &prState{rank: 1 - p.Damping}
}

// CloneValue deep-copies the mutable state for engine checkpoints.
func (p *StreamingPageRank) CloneValue(v any) any {
	st := v.(*prState)
	cp := *st
	cp.in = append([]prContrib(nil), st.in...)
	return &cp
}

// Compute folds announced shares into the in-contribution table, prunes it
// against the live neighbourhood on topology notices, recomputes the rank
// and re-announces its own share when it moved by more than Tol.
func (p *StreamingPageRank) Compute(ctx *bsp.VertexContext[prMsg], msgs []prMsg) {
	st := ctx.Value().(*prState)
	notice := ctx.TopologyChanged()

	// Apply announcements in place, dropping senders that are no longer
	// neighbours — their edge vanished while the message was in flight.
	// Without a combiner the engine delivers them in ascending sender
	// order for any worker count (bsp's order guarantee), as st.in and
	// the neighbour span ascend: merge all three. The walk costs no more
	// than the rank sum below, which reads all of st.in anyway.
	if len(msgs) > 0 {
		i := 0
		nbrs := ctx.NeighborCursor()
		for _, a := range msgs {
			if !nbrs.Contains(a.from) {
				continue
			}
			for i < len(st.in) && st.in[i].from < a.from {
				i++
			}
			if i < len(st.in) && st.in[i].from == a.from {
				st.in[i].share = a.share
			} else {
				st.in = slices.Insert(st.in, i, prContrib{from: a.from, share: a.share})
			}
		}
	}
	if notice {
		// The neighbourhood changed: contributions from ex-neighbours are
		// no longer part of the sum. st.in ascends, so one walk validates it.
		kept := st.in[:0]
		nbrs := ctx.NeighborCursor()
		for _, c := range st.in {
			if nbrs.Contains(c.from) {
				kept = append(kept, c)
			}
		}
		st.in = kept
	}

	sum := 0.0
	for _, c := range st.in {
		sum += c.share
	}
	st.rank = (1 - p.Damping) + p.Damping*sum

	share := 0.0
	if d := ctx.Degree(); d > 0 {
		share = st.rank / float64(d)
	}
	delta := share - st.share
	if delta < 0 {
		delta = -delta
	}
	if !st.booted || notice || delta > p.Tol {
		st.share = share
		st.booted = true
		ctx.SendToNeighbors(prMsg{share: share, from: ctx.ID()})
	}
	ctx.VoteToHalt()
}

// StreamingRank extracts the rank from a StreamingPageRank vertex value
// (ok is false for nil or foreign values).
func StreamingRank(v any) (float64, bool) {
	st, ok := v.(*prState)
	if !ok {
		return 0, false
	}
	return st.rank, true
}

var (
	_ bsp.Program[prMsg] = (*StreamingPageRank)(nil)
	_ bsp.ValueCloner    = (*StreamingPageRank)(nil)
)

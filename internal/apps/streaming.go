package apps

import (
	"cmp"
	"math"
	"slices"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
)

// This file implements the shared incremental core of the streaming
// analytics programs: a self-repairing minimum flood with parent pointers.
//
// Every vertex holds a lexicographic potential (key, hops) and the
// neighbour it derived it from (its parent in the flood forest; roots are
// their own parent). Streaming connected components roots every vertex at
// key = its own ID with hops 0, so the minimum vertex ID floods each
// component; incremental SSSP roots only the source at (0, 0), so hops is
// the shortest-path distance. Repair is targeted rather than from-scratch:
// when a vertex's derivation breaks — the parent edge disappeared, the
// parent was removed, or the parent announced a worse potential — the
// vertex resets to its root potential and re-adopts from its neighbours'
// announcements, cascading only through the subtree that actually lost its
// support. Mutation notices (VertexContext.TopologyChanged) trigger the
// validation and make newly-wired vertices re-announce, so the re-flood
// frontier is exactly View.MutatedVertices plus the broken subtrees.
//
// Two properties make the repair safe under arbitrary churn:
//
//   - Stale potentials cannot survive: a potential is only held together
//     with a parent pointer along a live edge, every potential change is
//     re-announced, and a worse announcement from the parent always resets
//     the child. Detached "ghost" potentials echoing between neighbours
//     climb their hop count on every bounce and are cut off by the
//     admission bound hops < NumVertices (the classic count-to-infinity
//     cutoff), after which the true minimum re-floods.
//   - Results are independent of message arrival order: announcements are
//     folded with an exactly-commutative lexicographic minimum after
//     sorting by sender, so worker counts and combining cannot change the
//     outcome.

// floodEntry is one sender's announcement: its current potential and its
// identity (the receiver validates the edge and may adopt the sender as
// parent).
type floodEntry struct {
	key  float64
	hops int32
	from graph.VertexID
}

// floodMsg is the message of the flood programs. A plain send carries one
// entry; the combiner concatenates entries so that one merged message per
// (source partition, destination) is priced while every individual
// announcement — needed for parent validation — survives verbatim.
type floodMsg struct{ entries []floodEntry }

// combineFlood concatenates announcement lists. Receivers sort entries by
// sender before folding, so the concatenation order (which depends on the
// worker count) is immaterial.
func combineFlood(a, b any) any {
	am, aok := a.(floodMsg)
	bm, bok := b.(floodMsg)
	if !aok || !bok {
		return a
	}
	return floodMsg{entries: append(am.entries, bm.entries...)}
}

// floodState is the per-vertex value of the flood programs: the current
// potential, the neighbour it was derived from (parent == the vertex
// itself marks a root), and whether the vertex has announced itself since
// (re)initialisation. It is a comparable value type, so engine checkpoints
// need no cloning.
type floodState struct {
	key    float64
	hops   int32
	parent graph.VertexID
	booted bool
}

// floodLess compares potentials lexicographically: smaller key first, then
// fewer hops.
func floodLess(k1 float64, h1 int32, k2 float64, h2 int32) bool {
	if k1 != k2 {
		return k1 < k2
	}
	return h1 < h2
}

// floodCompute is the shared Compute of the flood programs. root returns a
// vertex's rest potential key (its own label for components, 0 or +Inf for
// SSSP).
func floodCompute(ctx *bsp.VertexContext, msgs []any, root func(graph.VertexID) float64) {
	me := ctx.ID()
	st, ok := ctx.Value().(floodState)
	if !ok {
		st = floodState{key: root(me), parent: me}
	}
	wasBooted := st.booted
	st.booted = true
	notice := ctx.TopologyChanged()

	// Collect announcements in sender order: delivery order varies with
	// the worker count and with combining, the sorted fold does not. The
	// buffer stays on the stack unless more than 16 senders announce.
	var buf [16]floodEntry
	entries := buf[:0]
	for _, m := range msgs {
		if fm, ok := m.(floodMsg); ok {
			entries = append(entries, fm.entries...)
		}
	}
	slices.SortFunc(entries, func(a, b floodEntry) int { return cmp.Compare(a.from, b.from) })

	oldKey, oldHops := st.key, st.hops

	// 1. Validate the derivation. The parent edge must still exist
	// (checked when the neighbourhood changed), and the parent must not
	// have announced a potential worse than the one we derived from it.
	if st.parent != me {
		broken := notice && !ctx.HasNeighbor(st.parent)
		if !broken {
			for _, en := range entries {
				if en.from == st.parent && floodLess(st.key, st.hops, en.key, en.hops+1) {
					broken = true
					break
				}
			}
		}
		if broken {
			st.key, st.hops, st.parent = root(me), 0, me
		}
	}

	// 2. Adopt the best admissible candidate: a strictly better potential
	// announced over a live edge, with the hop bound cutting off
	// count-to-infinity walks of detached potentials.
	bound := int32(ctx.NumVertices())
	for _, en := range entries {
		if floodLess(en.key, en.hops+1, st.key, st.hops) && en.hops+1 < bound && ctx.HasNeighbor(en.from) {
			st.key, st.hops, st.parent = en.key, en.hops+1, en.from
		}
	}

	changed := st.key != oldKey || st.hops != oldHops
	if changed || !wasBooted || notice {
		// Announce the new potential to the whole neighbourhood: the
		// re-flood frontier advances (or the reset cascades).
		ctx.SendToNeighbors(floodMsg{entries: []floodEntry{{key: st.key, hops: st.hops, from: me}}})
	} else {
		// Nothing changed here, but a neighbour announced a potential we
		// can improve — typically a vertex that just reset and lost its
		// derivation. Offer ours back, point-to-point.
		for _, en := range entries {
			if floodLess(st.key, st.hops+1, en.key, en.hops) && ctx.HasNeighbor(en.from) {
				ctx.SendTo(en.from, floodMsg{entries: []floodEntry{{key: st.key, hops: st.hops, from: me}}})
			}
		}
	}
	ctx.SetValue(st)
	ctx.VoteToHalt()
}

// StreamingCC computes connected components by min-label flood and keeps
// the labels correct while the graph churns: edge additions re-announce and
// merge labels, and removals tear down exactly the flood subtrees whose
// support crossed the lost edge, which then re-adopt from their remaining
// neighbours. Quiescence implies every live vertex is labelled with the
// minimum vertex ID of its component, byte-identical to a from-scratch run.
type StreamingCC struct{}

// NewStreamingCC returns the program.
func NewStreamingCC() *StreamingCC { return &StreamingCC{} }

// Init roots the vertex at its own ID.
func (c *StreamingCC) Init(ctx *bsp.VertexContext) any {
	return floodState{key: float64(ctx.ID()), parent: ctx.ID()}
}

// Compute runs the shared self-repairing flood with every vertex a
// potential root.
func (c *StreamingCC) Compute(ctx *bsp.VertexContext, msgs []any) {
	floodCompute(ctx, msgs, func(v graph.VertexID) float64 { return float64(v) })
}

// CombineMessages concatenates announcements (one priced message per
// source partition and destination).
func (c *StreamingCC) CombineMessages(a, b any) any { return combineFlood(a, b) }

// StreamingCCLabel extracts the component label from a StreamingCC vertex
// value (ok is false for nil or foreign values).
func StreamingCCLabel(v any) (graph.VertexID, bool) {
	st, ok := v.(floodState)
	if !ok {
		return 0, false
	}
	return graph.VertexID(st.key), true
}

// StreamingSSSP maintains single-source shortest hop distances under
// churn: an added edge triggers a bounded re-flood from its endpoints, and
// a removed tree edge invalidates exactly the distances that were derived
// through it (the subtree resets to +Inf and re-relaxes from its frontier).
// Distances of vertices disconnected from the source converge to +Inf via
// the hop-bound cutoff. Quiescence implies every distance equals the
// from-scratch BFS distance.
type StreamingSSSP struct {
	// Source is the flood root. It may arrive later from the stream — or
	// be removed, which floats every distance back to +Inf.
	Source graph.VertexID
}

// NewStreamingSSSP returns the program rooted at source.
func NewStreamingSSSP(source graph.VertexID) *StreamingSSSP {
	return &StreamingSSSP{Source: source}
}

// Init roots the source at distance 0 and every other vertex at +Inf.
func (s *StreamingSSSP) Init(ctx *bsp.VertexContext) any {
	return floodState{key: s.rootKey(ctx.ID()), parent: ctx.ID()}
}

func (s *StreamingSSSP) rootKey(v graph.VertexID) float64 {
	if v == s.Source {
		return 0
	}
	return math.Inf(1)
}

// Compute runs the shared self-repairing flood rooted at the source.
func (s *StreamingSSSP) Compute(ctx *bsp.VertexContext, msgs []any) {
	floodCompute(ctx, msgs, s.rootKey)
}

// CombineMessages concatenates announcements (one priced message per
// source partition and destination).
func (s *StreamingSSSP) CombineMessages(a, b any) any { return combineFlood(a, b) }

// StreamingSSSPDist extracts the hop distance from a StreamingSSSP vertex
// value: +Inf for unreachable vertices, ok false for nil or foreign
// values.
func StreamingSSSPDist(v any) (float64, bool) {
	st, ok := v.(floodState)
	if !ok {
		return 0, false
	}
	if math.IsInf(st.key, 1) {
		return math.Inf(1), true
	}
	return float64(st.hops), true
}

// WithoutCombiner wraps a program, hiding any MessageCombiner (and
// CostDeclarer) it implements while forwarding everything else — the
// combiner-off axis of the invariance tests. Vertex values, and therefore
// results, must not depend on the wrapping; only message statistics may.
type WithoutCombiner struct{ P bsp.Program }

// Init forwards to the wrapped program.
func (w WithoutCombiner) Init(ctx *bsp.VertexContext) any { return w.P.Init(ctx) }

// Compute forwards to the wrapped program.
func (w WithoutCombiner) Compute(ctx *bsp.VertexContext, msgs []any) { w.P.Compute(ctx, msgs) }

// CloneValue forwards to the wrapped program's ValueCloner, or returns the
// value unchanged when it has none.
func (w WithoutCombiner) CloneValue(v any) any {
	if c, ok := w.P.(bsp.ValueCloner); ok {
		return c.CloneValue(v)
	}
	return v
}

var (
	_ bsp.Program         = (*StreamingCC)(nil)
	_ bsp.MessageCombiner = (*StreamingCC)(nil)
	_ bsp.Program         = (*StreamingSSSP)(nil)
	_ bsp.MessageCombiner = (*StreamingSSSP)(nil)
	_ bsp.Program         = WithoutCombiner{}
	_ bsp.ValueCloner     = WithoutCombiner{}
)

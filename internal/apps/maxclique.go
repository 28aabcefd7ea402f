package apps

import (
	"sort"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
)

// MaxClique finds a maximal clique containing each vertex using the
// neighbour-list-exchange algorithm the paper describes for its mobile
// call-graph use case (Section 4.3): "In the first iteration, each vertex
// sends its lists of neighbours to all its neighbours. On the next
// iteration, [each vertex intersects the lists]... As these lists can get
// large, this algorithm produces heavy messaging overhead for large
// graphs."
//
// The per-vertex result is a maximal (not maximum — that is NP-hard)
// clique grown greedily inside the vertex's closed neighbourhood from the
// exchanged lists. The global maximum clique size is published through the
// "maxclique.size" aggregator. The computation is restartable: the mobile
// experiment freezes topology, runs it to quiescence, applies the buffered
// stream window via the engine, calls ResetComputation and repeats.
type MaxClique struct{}

// NewMaxClique returns the program.
func NewMaxClique() *MaxClique { return &MaxClique{} }

// cliqueState is the per-vertex value.
type cliqueState struct {
	phase  int
	clique []graph.VertexID
}

// neighborList is the phase-0 message payload: the sender and its
// adjacency list.
type neighborList struct {
	from graph.VertexID
	adj  []graph.VertexID
}

// Init starts every vertex in the exchange phase.
func (mc *MaxClique) Init(ctx *bsp.VertexContext[neighborList]) any { return &cliqueState{} }

// CloneValue deep-copies the mutable clique state for checkpointing.
func (mc *MaxClique) CloneValue(v any) any {
	st, ok := v.(*cliqueState)
	if !ok {
		return v
	}
	return &cliqueState{phase: st.phase, clique: append([]graph.VertexID(nil), st.clique...)}
}

// Compute implements the two-phase exchange-and-intersect algorithm.
func (mc *MaxClique) Compute(ctx *bsp.VertexContext[neighborList], msgs []neighborList) {
	st, ok := ctx.Value().(*cliqueState)
	if !ok {
		st = &cliqueState{}
		ctx.SetValue(st)
	}
	switch st.phase {
	case 0:
		// Send a copy of the adjacency list to every neighbour. The copy
		// matters: the engine owns the original and topology may mutate.
		adj := append([]graph.VertexID(nil), ctx.Neighbors()...)
		ctx.SendToNeighbors(neighborList{from: ctx.ID(), adj: adj})
		st.phase = 1
		if len(adj) == 0 {
			// Isolated vertex: its maximal clique is itself.
			st.clique = []graph.VertexID{ctx.ID()}
			st.phase = 2
			ctx.AggregateMax("maxclique.size", 1)
			ctx.VoteToHalt()
		}
	case 1:
		st.clique = mc.greedyClique(ctx.ID(), msgs)
		st.phase = 2
		ctx.AggregateMax("maxclique.size", float64(len(st.clique)))
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

// greedyClique grows a maximal clique containing v from the received
// neighbour lists: candidates are v's neighbours ordered by how many of
// v's other neighbours they connect to (descending), each admitted iff
// adjacent to every member so far.
func (mc *MaxClique) greedyClique(v graph.VertexID, msgs []neighborList) []graph.VertexID {
	adjOf := make(map[graph.VertexID]map[graph.VertexID]bool, len(msgs))
	order := make([]graph.VertexID, 0, len(msgs))
	for _, nl := range msgs {
		set := make(map[graph.VertexID]bool, len(nl.adj))
		for _, w := range nl.adj {
			set[w] = true
		}
		if _, dup := adjOf[nl.from]; !dup {
			order = append(order, nl.from)
		}
		adjOf[nl.from] = set
	}
	// Score candidates by connectivity inside the neighbourhood.
	score := make(map[graph.VertexID]int, len(order))
	for _, u := range order {
		s := 0
		for _, w := range order {
			if w != u && adjOf[u][w] {
				s++
			}
		}
		score[u] = s
	}
	sort.Slice(order, func(i, j int) bool {
		if score[order[i]] != score[order[j]] {
			return score[order[i]] > score[order[j]]
		}
		return order[i] < order[j]
	})
	clique := []graph.VertexID{v}
	for _, u := range order {
		ok := true
		for _, w := range clique {
			if w == v {
				continue // u is a neighbour of v by construction
			}
			if !adjOf[u][w] {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, u)
		}
	}
	sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
	return clique
}

// Clique returns the vertex's computed maximal clique (nil before phase 2).
func Clique(v any) []graph.VertexID {
	if st, ok := v.(*cliqueState); ok && st.phase == 2 {
		return st.clique
	}
	return nil
}

var (
	_ bsp.Program[neighborList] = (*MaxClique)(nil)
	_ bsp.ValueCloner           = (*MaxClique)(nil)
)

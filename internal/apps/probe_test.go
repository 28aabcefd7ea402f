package apps

import (
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Deterministic regressions for the streaming programs' neighbour
// validation, which walks each vertex's sorted base span and scans its
// unsorted overlay adds with one ascending Cursor.Contains probe per
// compute. Each fixture pins a layout the random churn harness reaches
// only by chance, and diffs the quiescent values against the oracles.

// newProbeEngine builds an engine over g with two workers over three
// partitions, so announcements cross partitions, and a combiner delivers
// them grouped by source partition rather than by sender.
func newProbeEngine(t *testing.T, g *graph.Graph, prog suiteProg) *bsp.Engine {
	t.Helper()
	e, err := prog.start(g, partition.Hash(g, 3), bsp.Config{Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quiesceAndVerify runs the engine to quiescence and diffs it against the
// program's oracle.
func quiesceAndVerify(t *testing.T, e *bsp.Engine, prog suiteProg) {
	t.Helper()
	if _, done := e.RunUntilQuiescent(900); !done {
		t.Fatal("no quiescence")
	}
	if err := VerifyStreaming(e, prog.program()); err != nil {
		t.Fatal(err)
	}
}

// TestPageRankOverlayOnlyNeighbourhood: a vertex whose base span is empty
// and whose every neighbour is an overlay add, inserted in descending
// order. A probe that took the first chunk as the sorted base would walk
// the unsorted adds and drop contributions.
func TestPageRankOverlayOnlyNeighbourhood(t *testing.T) {
	g := graph.NewUndirected(0)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	g.AddEdge(1, 2)
	g.AddEdge(6, 7)
	prog := suite(NewStreamingPageRank())
	e := newProbeEngine(t, g, prog)
	quiesceAndVerify(t, e, prog)
	var wire graph.Batch
	for _, w := range []graph.VertexID{7, 5, 3, 2, 1} {
		wire = append(wire, graph.Mutation{Kind: graph.MutAddEdge, U: 0, V: w})
	}
	e.SetStream(graph.NewSliceStream([]graph.Batch{wire}))
	quiesceAndVerify(t, e, prog)
	// No compaction has run, so every base span is still empty.
	if g.Compactions() != 0 || g.Degree(0) != 5 {
		t.Fatalf("fixture drifted: %d compactions, degree %d", g.Compactions(), g.Degree(0))
	}
}

// TestHubProbeSpillsStackBuffer: a hub with more than 16 announcing
// senders, part base span (with entries spliced out) and part overlay, so
// the flood programs' 16-entry stack buffer spills to the heap and every
// program's probe crosses both halves of the adjacency.
func TestHubProbeSpillsStackBuffer(t *testing.T) {
	for _, c := range streamingCases() {
		t.Run(c.name, func(t *testing.T) {
			const hub, leaves = 0, 30
			g := graph.NewUndirected(0)
			for i := 0; i <= leaves; i++ {
				g.AddVertex()
			}
			for w := graph.VertexID(2); w <= 20; w++ {
				g.AddEdge(hub, w)
			}
			g.Compact()
			prog := c.prog()
			e := newProbeEngine(t, g, prog)
			quiesceAndVerify(t, e, prog)
			churn := graph.Batch{
				{Kind: graph.MutRemoveEdge, U: hub, V: 7},
				{Kind: graph.MutRemoveEdge, U: 12, V: hub},
			}
			// Eleven overlay neighbours, wired out of order, plus leaf-leaf
			// edges that put a notice on sixteen base neighbours: every
			// notified vertex announces, so the hub hears 27 senders at once.
			for _, w := range []graph.VertexID{30, 1, 25, 22, 28, 21, 24, 27, 23, 29, 26} {
				churn = append(churn, graph.Mutation{Kind: graph.MutAddEdge, U: hub, V: w})
			}
			for _, p := range [][2]graph.VertexID{{2, 3}, {4, 5}, {8, 9}, {10, 11}, {13, 14}, {15, 16}, {17, 18}, {19, 20}} {
				churn = append(churn, graph.Mutation{Kind: graph.MutAddEdge, U: p[0], V: p[1]})
			}
			e.SetStream(graph.NewSliceStream([]graph.Batch{churn}))
			quiesceAndVerify(t, e, prog)
			if _, adds := g.AdjacencyChunks(hub, false); adds == nil || g.Compactions() != 1 || g.Degree(hub) != 28 {
				t.Fatalf("fixture drifted: clean=%v, %d compactions, degree %d",
					adds == nil, g.Compactions(), g.Degree(hub))
			}
		})
	}
}

// TestFloodParentLostWhileOverlayCandidateArrives: in one compute, a
// flood vertex's parent edge is gone and a candidate announces over an
// overlay edge. The candidate only ties the old distance, so the vertex
// adopts it only if the parent check first resets it to the root.
func TestFloodParentLostWhileOverlayCandidateArrives(t *testing.T) {
	// SSSP from 0 along the chain 0-1-2-3-4 and the spur 0-5-6-7, with a
	// leaf 8 on 4: vertex 4 sits at distance 4 with parent 3, and 7 at
	// distance 3.
	g := graph.NewUndirected(0)
	for i := 0; i < 9; i++ {
		g.AddVertex()
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {6, 7}, {4, 8}} {
		g.AddEdge(e[0], e[1])
	}
	g.Compact()
	prog := suite(NewStreamingSSSP(0))
	e := newProbeEngine(t, g, prog)
	quiesceAndVerify(t, e, prog)
	// Batch 1 wires 7-4 into the overlay; 7 announces distance 3 over it
	// in the next superstep. Batch 2 lands at that superstep's barrier and
	// splices 3 out of 4's base span, so 4 computes with its parent edge
	// gone and 7's announcement in hand.
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutAddEdge, U: 7, V: 4}},
		{{Kind: graph.MutRemoveEdge, U: 3, V: 4}},
	}))
	e.RunSupersteps(3)
	st, ok := e.Value(4).(floodState)
	if !ok || st.key != 0 || st.hops != 4 || st.parent != 7 {
		t.Fatalf("vertex 4 after the cut = %+v, want distance 4 via 7", e.Value(4))
	}
	if _, adds := g.AdjacencyChunks(4, false); adds == nil {
		t.Fatal("fixture drifted: vertex 4 has no overlay")
	}
	quiesceAndVerify(t, e, prog)
}

package graph

import (
	"slices"
	"testing"
)

// checkProbe answers queries, which must ascend, with one cursor over v
// and requires every answer to equal HasEdge(v, x).
func checkProbe(t *testing.T, g *Graph, v VertexID, queries []VertexID) {
	t.Helper()
	c := g.NeighborCursor(v)
	for _, x := range queries {
		if got, want := c.Contains(x), g.HasEdge(v, x); got != want {
			t.Fatalf("vertex %d: Contains(%d) = %v, HasEdge = %v (queries %v)", v, x, got, want, queries)
		}
	}
}

// probeSweeps returns the ascending query lists each probe case runs: a
// dense sweep from below the smallest ID to past the largest with every
// query asked twice, and sparse sweeps that skip several neighbours
// between queries.
func probeSweeps(g *Graph) [][]VertexID {
	hi := VertexID(g.NumSlots() + 2)
	var dense []VertexID
	for x := VertexID(-1); x <= hi; x++ {
		dense = append(dense, x, x)
	}
	sweeps := [][]VertexID{dense}
	for _, stride := range []VertexID{3, 7} {
		var sparse []VertexID
		for x := VertexID(-1); x <= hi; x += stride {
			sparse = append(sparse, x)
		}
		sweeps = append(sweeps, sparse)
	}
	return sweeps
}

// windowGraph returns a compacted ring whose overlay, after hub 0 gains
// churn, sits between MaybeCompact's eager bar and the automatic one, so
// the same vertex can be probed on both sides of a quiet-point fold.
func windowGraph(t *testing.T) *Graph {
	t.Helper()
	const n = 40000
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	for i := 2; i < 40; i += 3 {
		g.AddEdge(0, VertexID(i))
	}
	g.Compact()
	g.RemoveEdge(0, 5) // splice a base entry out
	for i := 0; i < 700; i++ {
		g.AddEdge(VertexID(100+i), VertexID(100+i+n/2))
	}
	for _, w := range []VertexID{39999 - 7, 50, 41, 3} {
		g.AddEdge(0, w) // hub overlay, in descending-then-mixed order
	}
	if load := g.OverlayMass(); load <= g.eagerCompactThreshold() || load > g.compactThreshold() {
		t.Fatalf("fixture overlay %d not between eager %d and auto %d",
			load, g.eagerCompactThreshold(), g.compactThreshold())
	}
	return g
}

func TestCursorContains(t *testing.T) {
	small := func(directed bool) *Graph {
		g := NewUndirected(0)
		if directed {
			g = NewDirected(0)
		}
		for i := 0; i < 10; i++ {
			g.AddVertex()
		}
		return g
	}
	cases := []struct {
		name string
		// build returns the graph and the vertex to probe.
		build func(t *testing.T) (*Graph, VertexID)
		// base and adds are the expected cursor shape, pinning that the
		// case exercises the layout it is named after.
		base, adds int
	}{
		{"overlay only, empty base", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			for _, w := range []VertexID{8, 2, 5, 1} {
				g.AddEdge(4, w)
			}
			return g, 4
		}, 0, 4},
		{"base only", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			for _, w := range []VertexID{8, 2, 5, 1} {
				g.AddEdge(4, w)
			}
			g.Compact()
			return g, 4
		}, 4, 0},
		{"base spliced by RemoveEdge", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			for _, w := range []VertexID{8, 2, 5, 1, 9} {
				g.AddEdge(4, w)
			}
			g.Compact()
			g.RemoveEdge(4, 2)
			g.RemoveEdge(9, 4)
			return g, 4
		}, 3, 0},
		{"base and overlay", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			for _, w := range []VertexID{2, 6} {
				g.AddEdge(4, w)
			}
			g.Compact()
			g.AddEdge(4, 9)
			g.AddEdge(4, 0)
			g.AddEdge(4, 3)
			g.RemoveEdge(4, 0)
			return g, 4
		}, 2, 2},
		{"first and last slots", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			g.AddEdge(5, 0)
			g.AddEdge(5, 9)
			g.Compact()
			return g, 5
		}, 2, 0},
		{"directed out-adjacency", func(t *testing.T) (*Graph, VertexID) {
			g := small(true)
			g.AddEdge(3, 7)
			g.AddEdge(1, 3) // an in-edge: not an out-neighbour
			g.Compact()
			g.AddEdge(3, 2)
			return g, 3
		}, 1, 1},
		{"dead vertex", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			g.AddEdge(4, 2)
			g.Compact()
			g.AddEdge(4, 6)
			g.RemoveVertex(4)
			return g, 4
		}, 0, 0},
		{"recycled vertex", func(t *testing.T) (*Graph, VertexID) {
			g := small(false)
			g.AddEdge(4, 2)
			g.Compact()
			g.RemoveVertex(4)
			v := g.AddVertex()
			g.AddEdge(v, 7)
			return g, v
		}, 0, 1},
		{"out-of-range vertex", func(t *testing.T) (*Graph, VertexID) { return small(false), 99 }, 0, 0},
		{"negative vertex", func(t *testing.T) (*Graph, VertexID) { return small(false), -1 }, 0, 0},
		{"before MaybeCompact", func(t *testing.T) (*Graph, VertexID) { return windowGraph(t), 0 }, 14, 4},
		{"after MaybeCompact", func(t *testing.T) (*Graph, VertexID) {
			g := windowGraph(t)
			if !g.MaybeCompact() {
				t.Fatal("MaybeCompact declined the fixture overlay")
			}
			return g, 0
		}, 18, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, v := tc.build(t)
			if c := g.NeighborCursor(v); len(c.base) != tc.base || len(c.adds) != tc.adds {
				t.Fatalf("cursor shape base=%d adds=%d, want base=%d adds=%d", len(c.base), len(c.adds), tc.base, tc.adds)
			}
			for _, q := range probeSweeps(g) {
				checkProbe(t, g, v, q)
			}
		})
	}
}

// FuzzNeighborProbe decodes ops into a mutation sequence over a small slot
// budget, three bytes per operation (kind, then two vertex IDs), and then
// checks an ascending query list decoded from queries — plus a dense sweep
// — against HasEdge for every vertex. Run continuously with
//
//	go test -fuzz=FuzzNeighborProbe ./internal/graph
func FuzzNeighborProbe(f *testing.F) {
	const slots = 24
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 2, 1, 3, 2, 1, 2}, []byte{0, 1, 2, 3, 4, 5}, false)
	f.Add([]byte{0, 4, 0, 0, 9, 0, 0, 2, 0, 2, 4, 9, 2, 4, 2, 5, 0, 0, 4, 4, 2, 2, 4, 7}, []byte{3, 5, 5, 11, 30}, false)
	f.Add([]byte{0, 4, 0, 0, 9, 0, 3, 9, 4, 5, 0, 1, 3, 4, 9, 1, 9, 0}, []byte{6, 11, 13}, true)
	f.Fuzz(func(t *testing.T, ops, queries []byte, directed bool) {
		g := NewUndirected(0)
		if directed {
			g = NewDirected(0)
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			a, b := VertexID(ops[i+1]%slots), VertexID(ops[i+2]%slots)
			switch ops[i] % 6 {
			case 0:
				g.EnsureVertex(a)
			case 1:
				g.RemoveVertex(a)
			case 2, 3:
				g.AddEdge(a, b)
			case 4:
				g.RemoveEdge(a, b)
			case 5:
				if b%2 == 0 {
					g.Compact()
				} else {
					g.MaybeCompact()
				}
			}
		}
		qs := make([]VertexID, 0, len(queries))
		for _, q := range queries {
			qs = append(qs, VertexID(q%(slots+4))-2)
		}
		slices.Sort(qs)
		sweeps := append(probeSweeps(g), qs)
		for v := VertexID(-1); v <= slots; v++ {
			for _, q := range sweeps {
				checkProbe(t, g, v, q)
			}
		}
	})
}

// TestAdjacencyChunks checks that the two runs concatenate to Neighbors
// (out) and InNeighbors (in) on both graph kinds — an undirected graph
// answers in with its out-adjacency — that a dirty vertex's adds are
// non-nil, and that compaction leaves every vertex clean (adds nil).
func TestAdjacencyChunks(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildChurnedGraph(directed)
		check := func(stage string) (dirty int) {
			t.Helper()
			g.ForEachVertex(func(v VertexID) {
				for _, in := range []bool{false, true} {
					want := g.Neighbors(v)
					if in {
						want = g.InNeighbors(v)
					}
					base, adds := g.AdjacencyChunks(v, in)
					if got := append(append([]VertexID(nil), base...), adds...); !sameIDs(got, want) {
						t.Fatalf("directed=%v %s: vertex %d in=%v: runs %v + %v, want %v", directed, stage, v, in, base, adds, want)
					}
					if adds != nil {
						dirty++
					}
				}
			})
			return dirty
		}
		if check("overlaid") == 0 {
			t.Fatalf("directed=%v: fixture drifted: no vertex has overlay adds", directed)
		}
		g.Compact()
		if dirty := check("compacted"); dirty != 0 {
			t.Fatalf("directed=%v: %d runs still carry adds after Compact", directed, dirty)
		}
	}
}

package graph

import "testing"

// buildChurnedGraph constructs a graph whose free list and slot layout are
// non-trivial: vertices added, removed, and IDs recycled.
func buildChurnedGraph(directed bool) *Graph {
	var g *Graph
	if directed {
		g = NewDirected(0)
	} else {
		g = NewUndirected(0)
	}
	for i := 0; i < 12; i++ {
		g.AddVertex()
	}
	for i := 0; i < 11; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1))
	}
	g.AddEdge(0, 5)
	g.AddEdge(3, 9)
	g.RemoveVertex(4)
	g.RemoveVertex(7)
	g.RemoveEdge(0, 1)
	recycled := g.AddVertex() // recycles a freed ID
	g.AddEdge(recycled, 0)
	return g
}

func TestGraphCodecRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildChurnedGraph(directed)
		buf, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatalf("directed=%v: encode: %v", directed, err)
		}
		got, err := DecodeGraph(buf)
		if err != nil {
			t.Fatalf("directed=%v: decode: %v", directed, err)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("directed=%v: decoded graph invalid: %v", directed, err)
		}
		if got.Directed() != g.Directed() || got.NumVertices() != g.NumVertices() ||
			got.NumEdges() != g.NumEdges() || got.NumSlots() != g.NumSlots() {
			t.Fatalf("directed=%v: header mismatch: got |V|=%d |E|=%d slots=%d",
				directed, got.NumVertices(), got.NumEdges(), got.NumSlots())
		}
		// Identity-level equality: the free-list order decides which IDs
		// future AddVertex calls hand out, so it must round-trip exactly.
		a, b := g.AddVertex(), got.AddVertex()
		if a != b {
			t.Fatalf("directed=%v: free-list order lost: next ID %d vs %d", directed, a, b)
		}
		// Adjacency order decides iteration order, hence RNG consumption.
		g.ForEachVertex(func(v VertexID) {
			gn, hn := g.Neighbors(v), got.Neighbors(v)
			if len(gn) != len(hn) {
				t.Fatalf("directed=%v: vertex %d degree %d vs %d", directed, v, len(gn), len(hn))
			}
			for i := range gn {
				if gn[i] != hn[i] {
					t.Fatalf("directed=%v: vertex %d neighbour %d: %d vs %d", directed, v, i, gn[i], hn[i])
				}
			}
		})
	}
}

func TestGraphCodecRejectsCorruption(t *testing.T) {
	g := buildChurnedGraph(false)
	full, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := DecodeGraph(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
	// A flipped alive byte breaks the live-count validation.
	mut := append([]byte(nil), full...)
	mut[1+4+8+8] ^= 1 // first alive byte
	if _, err := DecodeGraph(mut); err == nil {
		t.Fatal("flipped alive bitmap decoded successfully")
	}
	// A huge slot count must be rejected before allocation.
	huge := append([]byte(nil), full...)
	huge[1], huge[2], huge[3], huge[4] = 0xff, 0xff, 0xff, 0x7f
	if _, err := DecodeGraph(huge); err == nil {
		t.Fatal("oversized slot count decoded successfully")
	}
}

func TestGraphCodecEmptyGraph(t *testing.T) {
	g := NewUndirected(0)
	buf, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGraph(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 || got.NumSlots() != 0 {
		t.Fatalf("empty graph round-trip: |V|=%d |E|=%d slots=%d",
			got.NumVertices(), got.NumEdges(), got.NumSlots())
	}
}

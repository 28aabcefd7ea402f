package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n int) *Graph {
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		g.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return g
}

func BenchmarkAddEdge(b *testing.B) {
	g := NewUndirected(b.N + 1)
	for i := 0; i <= b.N; i++ {
		g.AddVertex()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(VertexID(i), VertexID(i+1))
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(VertexID(i%10000), VertexID((i*7)%10000))
	}
}

// BenchmarkHasEdgeHub measures membership tests against a power-law hub:
// a star with 100k leaves, the worst case for the former O(degree)
// linear scan. The sorted CSR base span answers these with a binary
// search (the overlay stays linear but is bounded by the compaction
// threshold), so this must stay logarithmic in the hub degree.
func BenchmarkHasEdgeHub(b *testing.B) {
	const leaves = 100000
	g := NewUndirected(leaves + 1)
	hub := g.AddVertex()
	for i := 0; i < leaves; i++ {
		g.AddEdge(hub, g.AddVertex())
	}
	g.Compact()
	for _, bc := range []struct {
		name string
		dirt bool
	}{{"clean", false}, {"overlaid", true}} {
		b.Run(bc.name, func(b *testing.B) {
			h := g
			if bc.dirt {
				h = g.Clone()
				// Touch the hub so the probe also walks its overlay.
				extra := h.AddVertex()
				h.AddEdge(hub, extra)
				h.RemoveEdge(hub, 17)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.HasEdge(hub, VertexID(1+i%leaves))
			}
		})
	}
}

func BenchmarkNeighborsScan(b *testing.B) {
	g := benchGraph(10000)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for _, w := range g.Neighbors(VertexID(i % 10000)) {
			sum += int(w)
		}
	}
	_ = sum
}

func BenchmarkApplyChurnBatch(b *testing.B) {
	g := benchGraph(10000)
	batch := Batch{
		{Kind: MutAddVertex, U: VertexID(g.NumSlots())},
		{Kind: MutAddEdge, U: VertexID(g.NumSlots()), V: 0},
		{Kind: MutRemoveVertex, U: VertexID(g.NumSlots())},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(batch)
	}
}

func BenchmarkRemoveVertexWithEdges(b *testing.B) {
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		g := NewUndirected(64)
		center := g.AddVertex()
		for j := 0; j < 32; j++ {
			leaf := g.AddVertex()
			g.AddEdge(center, leaf)
		}
		b.StartTimer()
		g.RemoveVertex(center)
		b.StopTimer()
	}
}

// BenchmarkCompactGrowth measures one quiet-point compaction of a graph
// growing by preferential attachment, the shape of a streamed bulk load:
// a 200k-vertex Barabási–Albert graph (three edges per arrival) is
// compacted, then grown until its overlay crosses MaybeCompact's eager
// 1/64 bar. Each iteration compacts a fresh clone of that state, so most
// vertices are clean and only the arrivals and their targets merge.
func BenchmarkCompactGrowth(b *testing.B) {
	const n0, m = 200000, 3
	rng := rand.New(rand.NewSource(1))
	g := NewUndirected(n0)
	var ends []VertexID // one entry per edge end: degree-proportional sampling
	for i := 0; i <= m; i++ {
		g.AddVertex()
	}
	for u := VertexID(0); u <= m; u++ {
		for w := u + 1; w <= m; w++ {
			g.AddEdge(u, w)
			ends = append(ends, u, w)
		}
	}
	grow := func() {
		v := g.AddVertex()
		for j := 0; j < m; j++ {
			if w := ends[rng.Intn(len(ends))]; g.AddEdge(v, w) {
				ends = append(ends, v, w)
			}
		}
	}
	for g.NumVertices() < n0 {
		grow()
	}
	g.Compact()
	for g.overlayLoad() <= g.eagerCompactThreshold() {
		grow()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		c.Compact()
	}
}

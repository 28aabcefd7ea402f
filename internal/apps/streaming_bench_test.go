package apps

import (
	"math/rand"
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// BenchmarkStreamingCCChurn measures the steady-state cost of absorbing one
// churn batch with the self-repairing connected-components program: a
// converged BA(10000, 3) instance takes a batch of paired edge rewires and
// is drained back to quiescence per iteration. This is the incremental
// path's headline — re-flood work proportional to the damage, not to |V|.
func BenchmarkStreamingCCChurn(b *testing.B) { benchmarkChurn(b, NewStreamingCC()) }

// BenchmarkStreamingPageRankChurn is the same measurement for streaming
// PageRank, which has no combiner: every announcement crosses the engine's
// message plane on its own, so this tracks the per-message cost of the
// delivery path and the program's announcement fold.
func BenchmarkStreamingPageRankChurn(b *testing.B) { benchmarkChurn(b, NewStreamingPageRank()) }

// benchmarkChurn converges prog on BA(10000, 3), k=8, then times absorbing
// one batch of 100 paired edge rewires per iteration, drained back to
// quiescence.
func benchmarkChurn[M any](b *testing.B, prog bsp.Program[M]) {
	const (
		n        = 10000
		k        = 8
		rewires  = 100
		drainCap = 2000
	)
	g := gen.BarabasiAlbert(n, 3, 1)
	e, err := bsp.NewEngine(g, partition.Hash(g, k), prog, bsp.Config{Workers: k, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, done := e.RunUntilQuiescent(drainCap); !done {
		b.Fatal("initial computation did not converge")
	}

	// Pre-generate b.N batches against an evolving shadow so every
	// iteration applies live rewires; the paired add/remove keeps |E|
	// stationary across the whole run.
	rng := rand.New(rand.NewSource(2))
	shadow := g.Clone()
	var verts []graph.VertexID
	var edges [][2]graph.VertexID
	shadow.ForEachVertex(func(v graph.VertexID) { verts = append(verts, v) })
	shadow.ForEachEdge(func(u, v graph.VertexID) { edges = append(edges, [2]graph.VertexID{u, v}) })
	batches := make([]graph.Batch, b.N)
	for i := range batches {
		bat := make(graph.Batch, 0, 2*rewires)
		for j := 0; j < rewires && len(edges) > 0; j++ {
			idx := rng.Intn(len(edges))
			u, v := edges[idx][0], edges[idx][1]
			edges[idx] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			shadow.RemoveEdge(u, v)
			bat = append(bat, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
		}
		for j := 0; j < rewires; j++ {
			for tries := 0; tries < 32; tries++ {
				u := verts[rng.Intn(len(verts))]
				v := verts[rng.Intn(len(verts))]
				if u != v && !shadow.HasEdge(u, v) {
					shadow.AddEdge(u, v)
					edges = append(edges, [2]graph.VertexID{u, v})
					bat = append(bat, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
					break
				}
			}
		}
		batches[i] = bat
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetStream(graph.NewSliceStream([]graph.Batch{batches[i]}))
		if _, done := e.RunUntilQuiescent(drainCap); !done {
			b.Fatalf("iteration %d did not re-converge", i)
		}
	}
}

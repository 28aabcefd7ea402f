package core

import (
	"fmt"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// BenchmarkFoldHeat measures one steady-state heat fold — decay, 100
// samples from a fixed 2k-vertex hot set, and the neighbourhood wake —
// on ring graphs of 100k and 1M slots. The fold walks only the non-zero
// slots, so its cost should stay flat as the slot count grows tenfold.
// It is not gated by ci/bench.sh.
func BenchmarkFoldHeat(b *testing.B) {
	const (
		hotSet  = 2000
		perFold = 100
	)
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			g := graph.NewUndirected(n)
			ring := make(graph.Batch, n)
			for i := range ring {
				ring[i] = graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(i), V: graph.VertexID((i + 1) % n)}
			}
			g.Apply(ring)
			cfg := DefaultConfig(8, 1)
			cfg.RecordEvery = 0
			cfg.Incremental = true
			cfg.WorkloadWeight = 4
			p, err := New(g, partition.Hash(g, cfg.K), cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Fold f samples hot-set members f·perFold … f·perFold+99
			// (mod hotSet), spread evenly over the slot range.
			samples := make([][]graph.VertexID, hotSet/perFold)
			for f := range samples {
				for s := 0; s < perFold; s++ {
					samples[f] = append(samples[f], graph.VertexID((f*perFold+s)*(n/hotSet)))
				}
			}
			// Reach the steady state: every hot-set member sampled
			// repeatedly, decay balancing the inflow.
			hot := 0
			for f := 0; f < 200; f++ {
				_, hot = p.FoldHeat(0.9, samples[f%len(samples)], 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, hot = p.FoldHeat(0.9, samples[i%len(samples)], 16)
			}
			b.ReportMetric(float64(hot), "hot")
		})
	}
}

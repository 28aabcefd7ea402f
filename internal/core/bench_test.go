package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// benchStep measures one full iteration (decide + grant + apply) at the
// given shard count, on a power-law graph large enough that the sweep
// dominates goroutine fan-out overhead.
func benchStep(b *testing.B, par int) {
	g := gen.HolmeKim(30000, 7, 0.1, 1)
	cfg := DefaultConfig(16, 1)
	cfg.RecordEvery = 0
	cfg.Parallelism = par
	p, err := New(g, partition.Hash(g, 16), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkStepPowerLaw compares one shard deciding inline (seq)
// against the sharded decide phase: it is embarrassingly parallel, so on
// a multicore machine P≥4 is expected to beat seq by ≥2x. Every
// sub-benchmark steps through the same placements.
func BenchmarkStepPowerLaw(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchStep(b, 1) })
	for _, par := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) { benchStep(b, par) })
	}
}

// churnBases caches, per graph size, a power-law graph converged by the
// heuristic — the expensive shared fixture of the churn benchmarks.
var churnBases sync.Map // int -> *churnBase

type churnBase struct {
	once sync.Once
	g    *graph.Graph
	asn  *partition.Assignment
}

// convergedPowerLaw returns fresh clones of a converged n-vertex
// power-law graph and its adapted 16-way assignment.
func convergedPowerLaw(b *testing.B, n int) (*graph.Graph, *partition.Assignment) {
	b.Helper()
	v, _ := churnBases.LoadOrStore(n, &churnBase{})
	base := v.(*churnBase)
	base.once.Do(func() {
		g := gen.HolmeKim(n, 7, 0.1, 1)
		cfg := DefaultConfig(16, 1)
		cfg.RecordEvery = 0
		cfg.Incremental = true // fixture setup only; both paths start from the same state
		p, err := New(g, partition.Hash(g, 16), cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Run()
		base.g, base.asn = g, p.Assignment()
	})
	return base.g.Clone(), base.asn.Clone()
}

// churnBatch builds one 1% churn tick: `size` distinct vertices leave
// and the same IDs rejoin with fresh attachments (the paper's CDR
// workload shape — subscribers churning). Reusing the removed IDs keeps
// |V| and the slot table exactly fixed, so per-tick cost is stationary
// no matter how many ticks the benchmark executes (fresh-ID generators
// like ForestFireExpansion grow the slot table, which a slot-iterating
// full sweep pays for, coupling ns/op to b.N).
func churnBatch(g *graph.Graph, size int, rng *rand.Rand) graph.Batch {
	slots := g.NumSlots()
	victims := make([]graph.VertexID, 0, size)
	seen := make(map[graph.VertexID]bool, size)
	for len(victims) < size {
		v := graph.VertexID(rng.Intn(slots))
		if g.Has(v) && !seen[v] {
			seen[v] = true
			victims = append(victims, v)
		}
	}
	batch := make(graph.Batch, 0, size*9)
	for _, v := range victims {
		batch = append(batch, graph.Mutation{Kind: graph.MutRemoveVertex, U: v})
	}
	for _, v := range victims {
		batch = append(batch, graph.Mutation{Kind: graph.MutAddVertex, U: v})
		for e := 0; e < 7; e++ {
			batch = append(batch, graph.Mutation{Kind: graph.MutAddEdge, U: v, V: graph.VertexID(rng.Intn(slots))})
		}
	}
	return batch
}

// BenchmarkStepConvergedChurn is the headline measurement of the
// active-set scheduler: on a converged power-law graph, each benchmark
// iteration applies a 1% churn tick (adds balanced by removals, keeping
// |V| stationary across b.N) and runs the heuristic iterations that
// absorb it — the paper's streaming loop: churn arrives, the partitioner
// re-adapts between ticks. The per-tick iteration budget is the paper's
// ConvergenceWindow (30): a mutated graph must run that many quiet
// iterations to re-declare convergence, so every tick costs at least a
// window of iterations under the paper's protocol. Only the Steps are
// timed — tick generation and ApplyBatch are identical for both modes
// and would otherwise drown the sweep they feed. The full sweep pays
// O(|V|) for every one of those iterations regardless of churn; the
// incremental schedule pays for the woken region once and then for its
// shrinking residue, so the gap widens with graph size (the acceptance
// bar is ≥5× at n=100k).
func BenchmarkStepConvergedChurn(b *testing.B) {
	stepsPerBurst := DefaultConfig(16, 1).ConvergenceWindow
	for _, n := range []int{10000, 100000} {
		for _, bc := range []struct {
			name        string
			incremental bool
		}{{"full", false}, {"incremental", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, bc.name), func(b *testing.B) {
				g, asn := convergedPowerLaw(b, n)
				cfg := DefaultConfig(16, 1)
				cfg.RecordEvery = 0
				cfg.Incremental = bc.incremental
				p, err := New(g, asn, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				examined := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p.ApplyBatch(churnBatch(g, n/100, rng))
					b.StartTimer()
					examined = 0
					for s := 0; s < stepsPerBurst; s++ {
						examined += p.Step().Examined
					}
				}
				b.ReportMetric(float64(examined), "examined/burst")
			})
		}
	}
}

// BenchmarkStepEdgeBalanced measures the edge-balanced extension under
// both paths (quota units are degrees, so the grant phase claims larger
// amounts).
func BenchmarkStepEdgeBalanced(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{{"seq", 1}, {"P=4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			g := gen.HolmeKim(20000, 6, 0.1, 2)
			cfg := DefaultConfig(12, 2)
			cfg.RecordEvery = 0
			cfg.BalanceEdges = true
			cfg.Parallelism = bc.par
			p, err := New(g, partition.Random(g, 12, 2), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Step()
			}
		})
	}
}

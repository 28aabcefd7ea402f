package core

import (
	"fmt"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// forestFireGraph grows a mesh seed by forest-fire expansion — the dynamic
// workload family of the paper's streams — and returns the settled graph.
func forestFireGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g := gen.Cube3D(6)
	ff := gen.DefaultForestFire()
	for i := 0; i < 8; i++ {
		g.Apply(gen.ForestFireExpansion(g, 60, ff, seed+int64(i)))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return g
}

// forestFireStream pre-computes a batch stream by replaying the expansion
// on a scratch copy, so a dynamic run sees the same mutations.
func forestFireStream(g *graph.Graph, batches, perBatch int, seed int64) graph.Stream {
	scratch := g.Clone()
	ff := gen.DefaultForestFire()
	out := make([]graph.Batch, 0, batches)
	for i := 0; i < batches; i++ {
		b := gen.ForestFireExpansion(scratch, perBatch, ff, seed+int64(i))
		scratch.Apply(b)
		out = append(out, b)
	}
	return graph.NewSliceStream(out)
}

// expectedQuotas recomputes Section 2.2's per-pair quota matrix
// Q(i,j) = ⌊free(j)/(k−1)⌋ from the state at the start of an iteration,
// exactly as Step derives it for the default vertex-count accounting.
func expectedQuotas(p *Partitioner) [][]int {
	k := p.cfg.K
	caps := p.Capacities()
	q := make([][]int, k)
	for i := range q {
		q[i] = make([]int, k)
	}
	for j := 0; j < k; j++ {
		free := caps[j] - p.Assignment().Size(partition.ID(j))
		if free < 0 {
			free = 0
		}
		per := free
		if k > 1 {
			per = free / (k - 1)
		}
		for i := range q {
			q[i][j] = per
		}
	}
	return q
}

// stepAndCheckInvariants runs one Step and asserts the three partitioning
// invariants the quota protocol guarantees: per-pair migrations never
// exceed Q(i,j), no partition that was within capacity leaves it, and the
// assignment stays a proper partition (every live vertex in exactly one
// partition, consistent counters).
func stepAndCheckInvariants(t *testing.T, p *Partitioner, iter int) {
	t.Helper()
	k := p.cfg.K
	quotas := expectedQuotas(p)
	before := p.Assignment().Clone()
	p.Step()
	moved := make([][]int, k)
	for i := range moved {
		moved[i] = make([]int, k)
	}
	p.g.ForEachVertex(func(v graph.VertexID) {
		src, dst := before.Of(v), p.Assignment().Of(v)
		if src == partition.None || dst == partition.None {
			t.Fatalf("iteration %d: vertex %d unassigned (src=%d dst=%d)", iter, v, src, dst)
		}
		if src != dst {
			moved[src][dst]++
		}
	})
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if moved[i][j] > quotas[i][j] {
				t.Fatalf("iteration %d: %d migrations %d→%d exceed quota %d",
					iter, moved[i][j], i, j, quotas[i][j])
			}
		}
	}
	if !partition.WithinCapacities(p.Assignment(), p.Capacities()) {
		t.Fatalf("iteration %d: capacity exceeded: sizes=%v caps=%v",
			iter, p.Assignment().Sizes(), p.Capacities())
	}
	if err := p.Assignment().Validate(p.g); err != nil {
		t.Fatalf("iteration %d: %v", iter, err)
	}
}

// TestIterationInvariants drives both execution paths — sequential and
// sharded — through full iterations on a power-law graph and a forest-fire
// graph, asserting the quota/capacity/partition invariants at every
// barrier.
func TestIterationInvariants(t *testing.T) {
	graphs := map[string]func() *graph.Graph{
		"powerlaw":   func() *graph.Graph { return gen.HolmeKim(1200, 5, 0.1, 7) },
		"forestfire": func() *graph.Graph { return forestFireGraph(t, 7) },
	}
	for name, build := range graphs {
		for _, par := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", name, par), func(t *testing.T) {
				g := build()
				k := 9
				cfg := DefaultConfig(k, 11)
				cfg.Parallelism = par
				cfg.RecordEvery = 0
				p := mustNew(t, g, partition.Random(g, k, 11), cfg)
				for i := 0; i < 60 && !p.Converged(); i++ {
					stepAndCheckInvariants(t, p, i)
				}
			})
		}
	}
}

// TestParallelDeterminismFixedShards pins the reproducibility contract:
// a fixed seed and a fixed shard count produce byte-identical assignments
// and identical iteration histories, run after run.
func TestParallelDeterminismFixedShards(t *testing.T) {
	for _, par := range []int{2, 4, 8} {
		run := func() (*Partitioner, Result) {
			g := gen.HolmeKim(1500, 5, 0.1, 3)
			cfg := DefaultConfig(9, 42)
			cfg.Parallelism = par
			cfg.RecordEvery = 0
			cfg.MaxIterations = 400
			p := mustNewT(g, partition.Hash(g, 9), cfg)
			return p, p.Run()
		}
		p1, r1 := run()
		p2, r2 := run()
		if r1.Iterations != r2.Iterations || r1.TotalMigrations != r2.TotalMigrations ||
			r1.FinalCutRatio != r2.FinalCutRatio {
			t.Fatalf("P=%d: runs diverged: %+v vs %+v", par, r1, r2)
		}
		for i, st := range r1.History {
			if st != r2.History[i] {
				t.Fatalf("P=%d iteration %d: history diverged: %+v vs %+v", par, i, st, r2.History[i])
			}
		}
		for v := 0; v < p1.g.NumSlots(); v++ {
			if p1.Assignment().Of(graph.VertexID(v)) != p2.Assignment().Of(graph.VertexID(v)) {
				t.Fatalf("P=%d: vertex %d assigned differently across runs", par, v)
			}
		}
	}
}

// TestParallelComparableQuality checks the sharded sweep converges to a
// cut ratio in the same band as one shard on the quality workloads
// (TestLedgerShardCountIndependent asserts the placements are equal; this
// keeps the quality check on larger graphs).
func TestParallelComparableQuality(t *testing.T) {
	graphs := map[string]func() *graph.Graph{
		"powerlaw":   func() *graph.Graph { return gen.HolmeKim(1500, 5, 0.1, 5) },
		"forestfire": func() *graph.Graph { return forestFireGraph(t, 5) },
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			run := func(par int) (before, after float64, converged bool) {
				g := build()
				asn := partition.Hash(g, 9)
				before = partition.CutRatio(g, asn)
				cfg := DefaultConfig(9, 21)
				cfg.Parallelism = par
				cfg.RecordEvery = 0
				p := mustNewT(g, asn, cfg)
				res := p.Run()
				return before, res.FinalCutRatio, res.Converged
			}
			before, seq, seqConv := run(1)
			_, par, parConv := run(4)
			if !seqConv || !parConv {
				t.Fatalf("convergence: sequential=%t parallel=%t", seqConv, parConv)
			}
			if seq >= before || par >= before {
				t.Fatalf("no improvement: initial %.3f, sequential %.3f, parallel %.3f", before, seq, par)
			}
			if diff := par - seq; diff > 0.10 || diff < -0.10 {
				t.Fatalf("parallel cut %.3f not comparable to sequential %.3f (initial %.3f)", par, seq, before)
			}
		})
	}
}

// TestParallelDynamicStream interleaves the sharded sweep with a
// forest-fire mutation stream and validates the final state — the dynamic
// scenario every later scaling PR builds on.
func TestParallelDynamicStream(t *testing.T) {
	g := gen.Cube3D(7)
	stream := forestFireStream(g, 10, 40, 13)
	cfg := DefaultConfig(6, 13)
	cfg.Parallelism = 4
	cfg.RecordEvery = 0
	cfg.MaxIterations = 600
	p := mustNew(t, g, partition.Hash(g, 6), cfg)
	res := p.RunDynamic(stream)
	if !res.Converged {
		t.Fatalf("dynamic run did not converge in %d iterations", res.Iterations)
	}
	if err := p.Assignment().Validate(p.g); err != nil {
		t.Fatal(err)
	}
	if err := p.g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !partition.WithinCapacities(p.Assignment(), p.Capacities()) {
		t.Fatalf("capacity exceeded after dynamic run: sizes=%v caps=%v",
			p.Assignment().Sizes(), p.Capacities())
	}
}

// TestParallelZeroWillingnessNeverMoves mirrors the one-shard s=0 pin on
// several shards.
func TestParallelZeroWillingnessNeverMoves(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(4, 1)
	cfg.S = 0
	cfg.Parallelism = 4
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	for i := 0; i < 40; i++ {
		if st := p.Step(); st.Migrations != 0 || st.Requested != 0 {
			t.Fatalf("s=0 produced %d migrations under P=4", st.Migrations)
		}
	}
	if !p.Converged() {
		t.Fatal("zero-migration run must converge")
	}
}

// TestParallelEdgeBalanced runs the edge-balanced extension under the
// sharded path: quota units are vertex degrees, and the degree-weighted
// loads must respect the degree capacities granted at each iteration.
func TestParallelEdgeBalanced(t *testing.T) {
	g := gen.HolmeKim(800, 5, 0.1, 9)
	cfg := DefaultConfig(6, 9)
	cfg.Parallelism = 4
	cfg.BalanceEdges = true
	cfg.RecordEvery = 0
	cfg.MaxIterations = 150
	p := mustNew(t, g, partition.Random(g, 6, 9), cfg)
	res := p.Run()
	if err := p.Assignment().Validate(p.g); err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations == 0 {
		t.Fatal("edge-balanced parallel run never migrated")
	}
}

// TestParallelismResolution pins the knob semantics: 0 = one shard per
// CPU, 1 = one shard, n = n shards, negative rejected.
func TestParallelismResolution(t *testing.T) {
	g := gen.Cube3D(3)
	cfg := DefaultConfig(4, 1)
	cfg.Parallelism = -1
	if _, err := New(g, partition.Hash(g, 4), cfg); err == nil {
		t.Fatal("negative Parallelism must error")
	}
	cfg.Parallelism = 0
	if p := mustNew(t, g, partition.Hash(g, 4), cfg); p.Parallelism() < 1 {
		t.Fatalf("auto parallelism resolved to %d", p.Parallelism())
	}
	cfg.Parallelism = 3
	if p := mustNew(t, g, partition.Hash(g, 4), cfg); p.Parallelism() != 3 {
		t.Fatalf("explicit parallelism resolved to %d, want 3", p.Parallelism())
	}
}

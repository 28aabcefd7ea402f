package core

import (
	"fmt"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// TestIncrementalIterationInvariants drives the active-set scheduler —
// sequential and sharded — through full iterations on both graph
// families, asserting the quota/capacity/partition invariants at every
// barrier, exactly as the full-sweep paths are checked.
func TestIncrementalIterationInvariants(t *testing.T) {
	graphs := map[string]func() *graph.Graph{
		"powerlaw":   func() *graph.Graph { return gen.HolmeKim(1200, 5, 0.1, 7) },
		"forestfire": func() *graph.Graph { return forestFireGraph(t, 7) },
	}
	for name, build := range graphs {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, par), func(t *testing.T) {
				g := build()
				k := 9
				cfg := DefaultConfig(k, 11)
				cfg.Parallelism = par
				cfg.Incremental = true
				cfg.RecordEvery = 0
				p := mustNew(t, g, partition.Random(g, k, 11), cfg)
				for i := 0; i < 60 && !p.Converged(); i++ {
					stepAndCheckInvariants(t, p, i)
				}
			})
		}
	}
}

// TestIncrementalDeterminism pins the reproducibility contract for the
// active-set scheduler: fixed seed and shard count replay byte-identical
// assignments and histories.
func TestIncrementalDeterminism(t *testing.T) {
	for _, par := range []int{1, 4} {
		run := func() (*Partitioner, Result) {
			g := gen.HolmeKim(1500, 5, 0.1, 3)
			cfg := DefaultConfig(9, 42)
			cfg.Parallelism = par
			cfg.Incremental = true
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

// TestIncrementalComparableQuality checks the active-set schedule
// converges to a cut ratio in the same band as the full sweep (the two
// schedules draw the same keyed coins, but their placements are asserted
// equal only where every wake is complete; see
// TestLedgerFullMatchesIncremental).
func TestIncrementalComparableQuality(t *testing.T) {
	graphs := map[string]func() *graph.Graph{
		"powerlaw":   func() *graph.Graph { return gen.HolmeKim(1500, 5, 0.1, 5) },
		"forestfire": func() *graph.Graph { return forestFireGraph(t, 5) },
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			run := func(incremental bool) (before, after float64, converged bool) {
				g := build()
				asn := partition.Hash(g, 9)
				before = partition.CutRatio(g, asn)
				cfg := DefaultConfig(9, 21)
				cfg.Incremental = incremental
				cfg.RecordEvery = 0
				p := mustNewT(g, asn, cfg)
				res := p.Run()
				return before, res.FinalCutRatio, res.Converged
			}
			before, full, fullConv := run(false)
			_, inc, incConv := run(true)
			if !fullConv || !incConv {
				t.Fatalf("convergence: full=%t incremental=%t", fullConv, incConv)
			}
			if full >= before || inc >= before {
				t.Fatalf("no improvement: initial %.3f, full %.3f, incremental %.3f", before, full, inc)
			}
			if diff := inc - full; diff > 0.10 || diff < -0.10 {
				t.Fatalf("incremental cut %.3f not comparable to full sweep %.3f (initial %.3f)", inc, full, before)
			}
		})
	}
}

// TestIncrementalFrontierDrains is the asymptotic point of the scheduler:
// after convergence the active set is empty and an iteration examines
// nothing; a small churn burst wakes only the region of change, so the
// next sweeps stay proportional to the burst instead of |V|.
func TestIncrementalFrontierDrains(t *testing.T) {
	g := gen.HolmeKim(5000, 5, 0.1, 3)
	n := g.NumVertices()
	cfg := DefaultConfig(9, 3)
	cfg.Incremental = true
	cfg.RecordEvery = 0
	p := mustNew(t, g, partition.Hash(g, 9), cfg)
	res := p.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.History[0].Examined != n {
		t.Fatalf("first iteration examined %d, want the full seed %d", res.History[0].Examined, n)
	}
	if got := p.DirtyCount(); got != 0 {
		t.Fatalf("converged frontier not empty: %d vertices still dirty", got)
	}
	if st := p.Step(); st.Examined != 0 || st.Migrations != 0 {
		t.Fatalf("idle iteration examined %d vertices, migrated %d", st.Examined, st.Migrations)
	}

	// 1% churn: the woken set must be proportional to the burst (touched
	// vertices and their neighbourhoods), far below the full sweep.
	burst := gen.ForestFireExpansion(g, n/100, gen.DefaultForestFire(), 8)
	p.ApplyBatch(burst)
	woken := p.DirtyCount()
	if woken == 0 {
		t.Fatal("burst woke nothing")
	}
	if woken > n/4 {
		t.Fatalf("burst of %d vertices woke %d of %d — not proportional to churn", n/100, woken, n)
	}
	st := p.Step()
	if st.Examined != woken {
		t.Fatalf("examined %d != frontier %d", st.Examined, woken)
	}
	res = p.Run()
	if !res.Converged {
		t.Fatal("did not re-converge after the burst")
	}
	for _, it := range res.History {
		if it.Examined > n/4 {
			t.Fatalf("iteration %d examined %d of %d after a 1%% burst", it.Iteration, it.Examined, n)
		}
	}
	if err := p.Assignment().Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalEmptyBatchNoop pins the satellite requirement: an empty
// or fully-duplicate batch must leave the drained dirty set empty.
func TestIncrementalEmptyBatchNoop(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(4, 1)
	cfg.Incremental = true
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	p.Run()
	if !p.Converged() {
		t.Fatal("expected convergence")
	}
	if got := p.DirtyCount(); got != 0 {
		t.Fatalf("converged frontier not empty: %d", got)
	}
	if p.ApplyBatch(nil) != 0 {
		t.Fatal("nil batch must apply nothing")
	}
	if p.ApplyBatch(graph.Batch{{Kind: graph.MutAddVertex, U: 0}, {Kind: graph.MutAddEdge, U: 0, V: 1}}) != 0 {
		t.Fatal("duplicate batch must apply nothing")
	}
	if got := p.DirtyCount(); got != 0 {
		t.Fatalf("no-op batches dirtied %d vertices", got)
	}
	if !p.Converged() {
		t.Fatal("no-op batches must not reset convergence")
	}
}

// TestIncrementalVertexRecycling streams removals followed by re-adds so
// vertex IDs are recycled mid-stream while they may still sit on the
// frontier; the scheduler must neither examine dead slots nor lose the
// recycled vertex's wake.
func TestIncrementalVertexRecycling(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			g := gen.Cube3D(6)
			victims := []graph.VertexID{3, 50, 101}
			var batches []graph.Batch
			// Remove hub-ish vertices (waking their neighbourhoods), then
			// immediately re-add edges that recycle the freed IDs.
			for _, v := range victims {
				batches = append(batches, graph.Batch{{Kind: graph.MutRemoveVertex, U: v}})
			}
			for _, v := range victims {
				batches = append(batches, graph.Batch{
					{Kind: graph.MutAddVertex, U: v},
					{Kind: graph.MutAddEdge, U: v, V: v + 1},
				})
			}
			cfg := DefaultConfig(4, 9)
			cfg.Incremental = true
			cfg.Parallelism = par
			cfg.RecordEvery = 0
			p := mustNew(t, g, partition.Hash(g, 4), cfg)
			res := p.RunDynamic(graph.NewSliceStream(batches))
			if !res.Converged {
				t.Fatal("dynamic run did not converge")
			}
			for _, v := range victims {
				if !g.Has(v) {
					t.Fatalf("recycled vertex %d missing", v)
				}
				if p.Assignment().Of(v) == partition.None {
					t.Fatalf("recycled vertex %d unplaced", v)
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := p.Assignment().Validate(g); err != nil {
				t.Fatal(err)
			}
			if got := p.DirtyCount(); got != 0 {
				t.Fatalf("converged frontier not empty: %d", got)
			}
		})
	}
}

// TestIncrementalRemovalOfScheduledVertex removes a vertex that is
// sitting on the frontier: the next iteration must drop it without
// examining the dead slot.
func TestIncrementalRemovalOfScheduledVertex(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(4, 2)
	cfg.Incremental = true
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	p.Run()
	victim := graph.VertexID(31)
	// Wake the victim's neighbourhood, then kill the victim before it is
	// ever examined.
	p.ApplyBatch(graph.Batch{{Kind: graph.MutAddEdge, U: victim, V: 0}})
	p.ApplyBatch(graph.Batch{{Kind: graph.MutRemoveVertex, U: victim}})
	st := p.Step()
	if st.Examined >= g.NumSlots() {
		t.Fatalf("examined %d — swept dead slots", st.Examined)
	}
	if p.Assignment().Of(victim) != partition.None {
		t.Fatal("removed vertex still assigned")
	}
	if res := p.Run(); !res.Converged {
		t.Fatal("did not re-converge")
	}
	if err := p.Assignment().Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalDynamicStream interleaves the active-set scheduler with
// a forest-fire mutation stream on both execution paths and validates the
// final state.
func TestIncrementalDynamicStream(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			g := gen.Cube3D(7)
			stream := forestFireStream(g, 10, 40, 13)
			cfg := DefaultConfig(6, 13)
			cfg.Incremental = true
			cfg.Parallelism = par
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
		})
	}
}

// TestIncrementalEdgeBalanced runs the edge-balanced extension under the
// active-set scheduler: degree-weighted quotas must still admit moves.
func TestIncrementalEdgeBalanced(t *testing.T) {
	g := gen.HolmeKim(800, 5, 0.1, 9)
	cfg := DefaultConfig(6, 9)
	cfg.Incremental = true
	cfg.BalanceEdges = true
	cfg.RecordEvery = 0
	cfg.MaxIterations = 150
	p := mustNew(t, g, partition.Random(g, 6, 9), cfg)
	res := p.Run()
	if err := p.Assignment().Validate(p.g); err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations == 0 {
		t.Fatal("edge-balanced incremental run never migrated")
	}
}

// TestIncrementalZeroWillingness pins s=0 semantics: no vertex ever
// evaluates, nothing moves, but the run still converges (the frontier
// stays populated — unwilling vertices remain scheduled — yet quiet
// iterations accumulate exactly as in the full sweep).
func TestIncrementalZeroWillingness(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(4, 1)
	cfg.S = 0
	cfg.Incremental = true
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	for i := 0; i < 40; i++ {
		if st := p.Step(); st.Migrations != 0 || st.Requested != 0 {
			t.Fatalf("s=0 produced %d migrations", st.Migrations)
		}
	}
	if !p.Converged() {
		t.Fatal("zero-migration run must converge")
	}
}

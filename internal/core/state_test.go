package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// stateChurnBatch builds a deterministic mutation batch against g: a mix
// of edge additions (possibly materialising new vertices), edge removals
// and vertex removals. (bench_test.go's churnBatch keeps |V| stationary
// for stable ns/op; this one deliberately lets the slot table grow and
// shrink so the serialized free list is exercised.)
func stateChurnBatch(g *graph.Graph, rng *rand.Rand, size int) graph.Batch {
	var b graph.Batch
	slots := g.NumSlots()
	if slots == 0 {
		slots = 1
	}
	for i := 0; i < size; i++ {
		switch rng.Intn(5) {
		case 0, 1, 2: // add edge, sometimes to a fresh vertex
			u := graph.VertexID(rng.Intn(slots))
			v := graph.VertexID(rng.Intn(slots + 4))
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
		case 3: // remove an edge if the picked vertex has one
			u := graph.VertexID(rng.Intn(slots))
			if nb := g.Neighbors(u); len(nb) > 0 {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: nb[rng.Intn(len(nb))]})
			}
		case 4: // remove a vertex
			b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: graph.VertexID(rng.Intn(slots))})
		}
	}
	return b
}

// serializeRoundTrip pushes the partitioner's full state through the same
// serialization chain the snapshot container uses — graph codec,
// assignment table, exported core state — and restores a fresh
// partitioner from the copies.
func serializeRoundTrip(t *testing.T, p *Partitioner, cfg Config) *Partitioner {
	t.Helper()
	buf, err := p.g.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode graph: %v", err)
	}
	g2, err := graph.DecodeGraph(buf)
	if err != nil {
		t.Fatalf("decode graph: %v", err)
	}
	asn2, err := partition.FromTable(p.Assignment().Table(), cfg.K)
	if err != nil {
		t.Fatalf("rebuild assignment: %v", err)
	}
	p2, err := Restore(g2, asn2, cfg, p.ExportState())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return p2
}

func assignmentsEqual(a, b *partition.Assignment) bool {
	ta, tb := a.Table(), b.Table()
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRestoreDeterminism is the paper-system acceptance test:
// fixed seed + same stream ⇒ identical assignments whether the run is
// uninterrupted or checkpointed and restored mid-stream — across the
// sequential and sharded paths, full-sweep and incremental schedules.
func TestCheckpointRestoreDeterminism(t *testing.T) {
	modes := []struct {
		name        string
		parallelism int
		incremental bool
	}{
		{"sequential-full", 1, false},
		{"sequential-incremental", 1, true},
		{"parallel2-full", 2, false},
		{"parallel2-incremental", 2, true},
		{"parallel3-incremental", 3, true},
	}
	const (
		ticks        = 12
		checkpointAt = 5
		stepsPerTick = 4
	)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(restart bool) *Partitioner {
				g := gen.HolmeKim(300, 3, 0.1, 7)
				cfg := DefaultConfig(5, 99)
				cfg.Parallelism = mode.parallelism
				cfg.Incremental = mode.incremental
				cfg.RecordEvery = 0
				asn := partition.Hash(g, cfg.K)
				p, err := New(g, asn, cfg)
				if err != nil {
					t.Fatal(err)
				}
				streamRNG := rand.New(rand.NewSource(41))
				for tick := 0; tick < ticks; tick++ {
					p.ApplyBatch(stateChurnBatch(p.g, streamRNG, 20))
					for s := 0; s < stepsPerTick; s++ {
						p.Step()
					}
					if restart && tick == checkpointAt {
						p = serializeRoundTrip(t, p, cfg)
					}
				}
				return p
			}
			straight := run(false)
			restarted := run(true)
			if straight.Iteration() != restarted.Iteration() {
				t.Fatalf("iteration diverged: %d vs %d", straight.Iteration(), restarted.Iteration())
			}
			if !assignmentsEqual(straight.Assignment(), restarted.Assignment()) {
				t.Fatal("assignments diverged after checkpoint/restore")
			}
			if straight.Converged() != restarted.Converged() {
				t.Fatalf("convergence state diverged: %v vs %v", straight.Converged(), restarted.Converged())
			}
			if mode.incremental && straight.DirtyCount() != restarted.DirtyCount() {
				t.Fatalf("dirty count diverged: %d vs %d", straight.DirtyCount(), restarted.DirtyCount())
			}
		})
	}
}

// TestCheckpointEveryTick round-trips the state at *every* tick of a
// churn run — any single field missing from State shows up as divergence
// on some tick.
func TestCheckpointEveryTick(t *testing.T) {
	g := gen.HolmeKim(200, 3, 0.1, 3)
	cfg := DefaultConfig(4, 17)
	cfg.Incremental = true
	cfg.RecordEvery = 0
	asn := partition.Hash(g, cfg.K)
	p, err := New(g, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(gen.HolmeKim(200, 3, 0.1, 3), partition.Hash(gen.HolmeKim(200, 3, 0.1, 3), cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(23))
	rngB := rand.New(rand.NewSource(23))
	for tick := 0; tick < 8; tick++ {
		p.ApplyBatch(stateChurnBatch(p.g, rngA, 15))
		ref.ApplyBatch(stateChurnBatch(ref.g, rngB, 15))
		for s := 0; s < 3; s++ {
			p.Step()
			ref.Step()
		}
		p = serializeRoundTrip(t, p, cfg)
		if !assignmentsEqual(p.Assignment(), ref.Assignment()) {
			t.Fatalf("tick %d: assignments diverged after round-trip", tick)
		}
	}
}

// TestExportStateIsDetached guards the snapshot path against aliasing:
// mutating an exported state (or continuing the partitioner) must not
// corrupt the other side.
func TestExportStateIsDetached(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(3, 5)
	cfg.Incremental = true
	p, err := New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	st := p.ExportState()
	if st.Active == nil {
		t.Fatal("incremental run exported no active-set state")
	}
	wantFrontier := len(st.Active.Frontier)
	// Mutating the export must not touch the live scheduler.
	for i := range st.Active.Frontier {
		st.Active.Frontier[i] = -1
	}
	for j := range st.Active.Parked {
		for i := range st.Active.Parked[j] {
			st.Active.Parked[j][i] = -1
		}
	}
	st2 := p.ExportState()
	if len(st2.Active.Frontier) != wantFrontier {
		t.Fatalf("frontier size changed after mutating export: %d vs %d", len(st2.Active.Frontier), wantFrontier)
	}
	for _, v := range st2.Active.Frontier {
		if v == -1 {
			t.Fatal("mutating exported frontier leaked into the partitioner")
		}
	}
	// Continuing the partitioner must not invalidate an earlier export.
	before := fmt.Sprint(st2)
	for i := 0; i < 5; i++ {
		p.Step()
	}
	if fmt.Sprint(st2) != before {
		t.Fatal("partitioner progress mutated a previously exported state")
	}
}

// TestRestoreValidation exercises the mismatch errors.
func TestRestoreValidation(t *testing.T) {
	g := gen.Cube3D(4)
	cfg := DefaultConfig(3, 5)
	p, err := New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	st := p.ExportState()

	// Incremental flag mismatch.
	badCfg := cfg
	badCfg.Incremental = true
	if _, err := Restore(g.Clone(), partition.Hash(g, cfg.K), badCfg, st); err == nil {
		t.Fatal("restore accepted incremental config for full-sweep state")
	}
	// Negative counters.
	bad := st
	bad.Iteration = -1
	if _, err := Restore(g.Clone(), partition.Hash(g, cfg.K), cfg, bad); err == nil {
		t.Fatal("restore accepted negative iteration counter")
	}
}

// TestRestoreAtAnotherParallelism checkpoints a one-shard run and
// restores it at two and four shards: the continuation must be
// byte-identical to the uninterrupted run, in both schedules, because the
// state carries no per-shard generator.
func TestRestoreAtAnotherParallelism(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		for _, par := range []int{2, 4} {
			t.Run(fmt.Sprintf("incremental=%v/P=%d", incremental, par), func(t *testing.T) {
				run := func(restoreAt int) []partition.ID {
					g := gen.HolmeKim(300, 3, 0.1, 7)
					cfg := DefaultConfig(5, 99)
					cfg.Incremental = incremental
					cfg.RecordEvery = 0
					p := mustNew(t, g, partition.Hash(g, cfg.K), cfg)
					streamRNG := rand.New(rand.NewSource(41))
					for tick := 0; tick < 10; tick++ {
						p.ApplyBatch(stateChurnBatch(p.g, streamRNG, 20))
						for s := 0; s < 4; s++ {
							p.Step()
						}
						if tick == restoreAt {
							cfg.Parallelism = par
							p = serializeRoundTrip(t, p, cfg)
							if p.Parallelism() != par {
								t.Fatalf("restored at %d shards, want %d", p.Parallelism(), par)
							}
						}
					}
					return p.Assignment().Table()
				}
				straight, restored := run(-1), run(4)
				for v := range straight {
					if straight[v] != restored[v] {
						t.Fatalf("vertex %d: %d uninterrupted, %d after restoring at %d shards", v, straight[v], restored[v], par)
					}
				}
			})
		}
	}
}

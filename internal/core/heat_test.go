package core

import (
	"math"
	"strings"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// foldTrace is a synthetic read-heat trace: the samples folded before
// step i. It rotates a small hot window through the vertex range so
// successive folds heat different neighbourhoods, exercising decay,
// re-heating and the frontier wake.
func foldTrace(step, n int) []graph.VertexID {
	base := (step * 13) % n
	s := make([]graph.VertexID, 0, 12)
	for j := 0; j < 12; j++ {
		s = append(s, graph.VertexID((base+j*j)%n))
	}
	return s
}

// heatModes are the execution paths the heat tests cover: the
// paper-exact sequential full sweep and the sharded-parallel
// incremental scheduler (the daemon's configuration).
var heatModes = []struct {
	name        string
	parallelism int
	incremental bool
}{
	{"sequential-full", 1, false},
	{"parallel2-incremental", 2, true},
}

// TestHeatFoldIsPassiveAtZeroWeight mirrors the change-tracking
// passivity contract: with WorkloadWeight == 0, folding heat every few
// steps (the daemon does this whenever recording is on, for the
// apartd_heat_* gauges) must not perturb the heuristic — same seed,
// same stream, byte-identical assignments.
func TestHeatFoldIsPassiveAtZeroWeight(t *testing.T) {
	for _, mode := range heatModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(fold bool) []partition.ID {
				g := gen.BarabasiAlbert(400, 2, 5)
				asn := partition.Hash(g, 4)
				cfg := DefaultConfig(4, 3)
				cfg.RecordEvery = 0
				cfg.Parallelism = mode.parallelism
				cfg.Incremental = mode.incremental
				p, err := New(g, asn, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					if fold && i%5 == 0 {
						p.FoldHeat(0.8, foldTrace(i, 400), 16)
					}
					p.Step()
				}
				return p.Assignment().Table()
			}
			a, b := run(false), run(true)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("slot %d diverged with heat folds on: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestHeatDeterminismAtPositiveWeight pins the replay contract the
// checkpoint/restore path depends on: with the workload term active,
// a fixed seed plus a fixed fold schedule must reproduce byte-identical
// assignments on every execution path.
func TestHeatDeterminismAtPositiveWeight(t *testing.T) {
	for _, mode := range heatModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func() []partition.ID {
				g := gen.BarabasiAlbert(400, 2, 5)
				asn := partition.Hash(g, 4)
				cfg := DefaultConfig(4, 3)
				cfg.RecordEvery = 0
				cfg.Parallelism = mode.parallelism
				cfg.Incremental = mode.incremental
				cfg.WorkloadWeight = 6
				p, err := New(g, asn, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					if i%5 == 0 {
						p.FoldHeat(0.8, foldTrace(i, 400), 16)
					}
					p.Step()
				}
				return p.Assignment().Table()
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("slot %d not reproducible at WorkloadWeight>0: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestHeatWeightedScoringPullsCoReadNeighbours checks the objective
// actually changes behaviour when it should: on a tie between two
// destinations, decayed heat must break it toward the partition whose
// members are read together with the decider.
func TestHeatWeightedScoringPullsCoReadNeighbours(t *testing.T) {
	// Vertex 0 has two neighbours in partition 1 (vertices 1, 3) and two
	// in partition 2 (vertices 2, 4) — an exact tie, and either beats
	// staying on partition 0 alone. Heat on vertex 2 must make
	// partition 2 the unique argmax.
	g := graph.NewUndirected(8)
	g.Apply(graph.Batch{
		{Kind: graph.MutAddEdge, U: 0, V: 1},
		{Kind: graph.MutAddEdge, U: 0, V: 2},
		{Kind: graph.MutAddEdge, U: 0, V: 3},
		{Kind: graph.MutAddEdge, U: 0, V: 4},
	})
	asn := partition.NewAssignment(g.NumSlots(), 3)
	asn.Assign(0, 0)
	asn.Assign(1, 1)
	asn.Assign(2, 2)
	asn.Assign(3, 1)
	asn.Assign(4, 2)
	cfg := DefaultConfig(3, 1)
	cfg.RecordEvery = 0
	cfg.WorkloadWeight = 4
	p, err := New(g, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FoldHeat(1.0, []graph.VertexID{2, 2, 2}, 1)

	tied := p.scorer.Best(g, asn, 0, 0)
	if len(tied) != 1 || tied[0] != 2 {
		t.Fatalf("tied = %v, want the hot partition [2]", tied)
	}

	// Same topology, weight off: the tie stands and both appear.
	cfg.WorkloadWeight = 0
	p2, err := New(g, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2.FoldHeat(1.0, []graph.VertexID{2, 2, 2}, 1)
	tied = p2.scorer.Best(g, asn, 0, 0)
	if len(tied) != 2 {
		t.Fatalf("tied = %v at weight 0, want the untouched two-way tie", tied)
	}
}

// TestRestoreRejectsImpossibleHeat checks that a state whose heat
// accumulator holds a value FoldHeat can never produce — NaN, an
// infinity or a negative entry — is refused with an error naming the
// slot, instead of restoring a partitioner whose votes it would poison.
func TestRestoreRejectsImpossibleHeat(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 5)
	cfg := DefaultConfig(3, 1)
	cfg.RecordEvery = 0
	cfg.WorkloadWeight = 4
	p, err := New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.FoldHeat(0.9, []graph.VertexID{1, 2, 3, 3}, 16)
	st := p.ExportState()
	if _, err := Restore(g, p.Assignment().Clone(), cfg, st); err != nil {
		t.Fatalf("restoring the valid state: %v", err)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -1} {
		st := p.ExportState()
		st.Heat[7] = bad
		_, err := Restore(g, p.Assignment().Clone(), cfg, st)
		if err == nil || !strings.Contains(err.Error(), "slot 7") {
			t.Errorf("heat %v: restore returned %v, want an error naming slot 7", bad, err)
		}
	}
}

// TestFoldHeatAllocationFree checks that a steady-state fold, wake
// dedupe included, allocates nothing once its scratch has grown.
func TestFoldHeatAllocationFree(t *testing.T) {
	g := gen.BarabasiAlbert(400, 2, 5)
	cfg := DefaultConfig(4, 3)
	cfg.RecordEvery = 0
	cfg.Incremental = true
	cfg.WorkloadWeight = 4
	p, err := New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := foldTrace(3, 400)
	samples = append(samples, samples...)
	p.FoldHeat(0.9, samples, 16)
	if allocs := testing.AllocsPerRun(50, func() { p.FoldHeat(0.9, samples, 16) }); allocs != 0 {
		t.Fatalf("FoldHeat allocated %v times per fold, want 0", allocs)
	}
}

package adaptive

import (
	"math"
	"slices"
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// heatView is a synthetic frozen heat snapshot: a small hot window
// rotated through the slot range by step, mirroring the fold trace the
// core tests replay, so successive installs heat different
// neighbourhoods.
func heatView(slots, step int) []float32 {
	h := make([]float32, slots)
	base := (step * 13) % slots
	for j := 0; j < 12; j++ {
		h[(base+j*j)%slots] += float32(12 - j)
	}
	return h
}

// adaptiveHeatModes are the scheduler paths the heat tests cover: the
// paper-exact full sweep and the active-set scheduler (whose SetHeat
// additionally owes the frontier a hot-neighbourhood wake).
var adaptiveHeatModes = []struct {
	name        string
	incremental bool
}{
	{"full", false},
	{"incremental", true},
}

// runHeatEngine converges an idle engine over a 512-vertex cube with
// the given workload weight, installing a fresh heat view every 10
// supersteps, and returns the final assignment table.
func runHeatEngine(t *testing.T, incremental bool, ww float64, install bool) []partition.ID {
	t.Helper()
	g := gen.Cube3D(8)
	e, err := bsp.NewEngine(g, partition.Hash(g, 4), idleProgram{}, bsp.Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Incremental = incremental
	cfg.WorkloadWeight = ww
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	for i := 0; i < 80; i++ {
		if install && i%10 == 0 {
			svc.SetHeat(heatView(g.NumSlots(), i))
		}
		e.RunSuperstep()
	}
	if err := e.Addr().Validate(g); err != nil {
		t.Fatal(err)
	}
	return e.Addr().Table()
}

// TestSetHeatPassiveAtZeroWeight pins the passivity contract: with
// WorkloadWeight == 0, installing heat views mid-run (an embedder may
// ship them unconditionally) must not perturb the heuristic — same
// seed, byte-identical assignments, on both scheduler paths.
func TestSetHeatPassiveAtZeroWeight(t *testing.T) {
	for _, mode := range adaptiveHeatModes {
		t.Run(mode.name, func(t *testing.T) {
			a := runHeatEngine(t, mode.incremental, 0, false)
			b := runHeatEngine(t, mode.incremental, 0, true)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("slot %d diverged with heat installed at weight 0: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestSetHeatDeterminismOnEngine pins the replay contract: with the
// workload term active and a fixed install schedule, the engine-side
// service must reproduce byte-identical assignments run over run.
func TestSetHeatDeterminismOnEngine(t *testing.T) {
	for _, mode := range adaptiveHeatModes {
		t.Run(mode.name, func(t *testing.T) {
			a := runHeatEngine(t, mode.incremental, 5, true)
			b := runHeatEngine(t, mode.incremental, 5, true)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("slot %d not reproducible at WorkloadWeight>0: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// newScoringFixture builds the tie-break fixture shared with the core
// tests: vertex 0 on partition 0 with two neighbours on partition 1
// (vertices 1, 3) and two on partition 2 (vertices 2, 4) — an exact
// tie, and either destination beats staying.
func newScoringFixture() (*graph.Graph, *partition.Assignment) {
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
	return g, asn
}

// newScoringService builds a service for direct scorer calls.
func newScoringService(t *testing.T, ww float64) *Service {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.WorkloadWeight = ww
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestHeatWeightedScoringOnService checks the service's scorer changes
// behaviour when it should: heat on vertex 2 must break the two-way
// destination tie toward partition 2, and the hot-spot drain form must
// agree.
func TestHeatWeightedScoringOnService(t *testing.T) {
	g, asn := newScoringFixture()
	svc := newScoringService(t, 4)
	// A short view (covering slots 0..2 only) also exercises the
	// vertices-past-the-view default vote of 1.
	svc.SetHeat([]float32{0, 0, 3})
	if tied := svc.scorer.Best(g, asn, 0, 0); len(tied) != 1 || tied[0] != 2 {
		t.Fatalf("Best = %v, want the hot partition [2]", tied)
	}
	if tied := svc.scorer.BestOther(g, asn, 0, 0); len(tied) != 1 || tied[0] != 2 {
		t.Fatalf("BestOther = %v, want the hot partition [2]", tied)
	}

	// Weight off: SetHeat stays passive and the scorer reproduces the
	// unweighted two-way tie.
	cold := newScoringService(t, 0)
	cold.SetHeat([]float32{0, 0, 3})
	if tied := cold.scorer.Best(g, asn, 0, 0); len(tied) != 2 {
		t.Fatalf("tied = %v at weight 0, want the untouched two-way tie", tied)
	}

	// A nil view deactivates the term again.
	svc.SetHeat(nil)
	if tied := svc.scorer.Best(g, asn, 0, 0); len(tied) != 2 {
		t.Fatalf("tied = %v after SetHeat(nil), want the untouched two-way tie", tied)
	}
}

// TestSetHeatMatchesDenseVotes checks the heat view SetHeat installs —
// its bitmap of non-zero slots and its multiplier — against dense votes:
// on directed and undirected graphs, under a view shorter than the slot
// range, every vertex's Best and drain winners must be those of a tally
// that loads every neighbour's heat and votes 1 past the view.
func TestSetHeatMatchesDenseVotes(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.BarabasiAlbert(300, 3, 9)
		if directed {
			d := graph.NewDirected(g.NumSlots())
			g.ForEachEdge(func(u, v graph.VertexID) { d.AddEdge(v, u) })
			g = d
		}
		asn := partition.Hash(g, 4)
		heat := make([]float32, 200)
		max := 0.0
		for i := 0; i < len(heat); i += 7 {
			heat[i] = float32(i%23) / 2
			max = math.Max(max, float64(heat[i]))
		}
		svc := newScoringService(t, 3)
		svc.SetHeat(heat)
		counts := make([]float64, 4)
		g.ForEachVertex(func(v graph.VertexID) {
			cur := asn.Of(v)
			for _, drain := range []bool{false, true} {
				clear(counts)
				if !drain {
					counts[cur]++
				}
				nbrs := g.Neighbors(v)
				if directed {
					nbrs = slices.Concat(nbrs, g.InNeighbors(v))
				}
				for _, w := range nbrs {
					vote := 1.0
					if int(w) < len(heat) {
						vote = 1 + 3/max*float64(heat[w])
					}
					counts[asn.Of(w)] += vote
				}
				best, stay := -1.0, false
				var want []partition.ID
				for i, c := range counts {
					if drain && partition.ID(i) == cur {
						continue
					}
					switch {
					case c > best:
						best, want = c, []partition.ID{partition.ID(i)}
					case c == best:
						want = append(want, partition.ID(i))
					}
				}
				if !drain && counts[cur] == best {
					want, stay = nil, true
				}
				got := svc.scorer.Best(g, asn, v, cur)
				if drain {
					got = svc.scorer.BestOther(g, asn, v, cur)
				}
				if !slices.Equal(got, want) || (got == nil) != stay {
					t.Fatalf("directed=%v vertex %d drain=%v: tied %v, dense votes give %v", directed, v, drain, got, want)
				}
			}
		})
	}
}

// TestHeatWeighingCoversBothDirections pins the digraph contract: on a
// directed graph the weighted Γ-count weighs out- AND in-neighbours,
// like the unweighted scorer it mirrors.
func TestHeatWeighingCoversBothDirections(t *testing.T) {
	g := graph.NewDirected(4)
	g.Apply(graph.Batch{
		{Kind: graph.MutAddEdge, U: 0, V: 1}, // out-neighbour of 0
		{Kind: graph.MutAddEdge, U: 2, V: 0}, // in-neighbour of 0
	})
	asn := partition.NewAssignment(g.NumSlots(), 3)
	asn.Assign(0, 0)
	asn.Assign(1, 1)
	asn.Assign(2, 2)

	svc := newScoringService(t, 4)
	svc.SetHeat([]float32{0, 0, 2})
	// Partition 1 holds the cold out-neighbour (vote 1), partition 2
	// the hot in-neighbour (vote 1 + 4·2/2 = 5): unique argmax.
	if tied := svc.scorer.Best(g, asn, 0, 0); len(tied) != 1 || tied[0] != 2 {
		t.Fatalf("tied = %v, want the hot in-neighbour's partition [2]", tied)
	}
}

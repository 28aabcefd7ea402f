package core

import (
	"math"
	"testing"
	"testing/quick"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func mustNew(t *testing.T, g *graph.Graph, asn *partition.Assignment, cfg Config) *Partitioner {
	t.Helper()
	p, err := New(g, asn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	g := gen.Cube3D(3)
	asn := partition.Hash(g, 4)
	bad := []Config{
		{K: 0, CapacityFactor: 1.1, S: 0.5, ConvergenceWindow: 30, MaxIterations: 10},
		{K: 4, CapacityFactor: 0.9, S: 0.5, ConvergenceWindow: 30, MaxIterations: 10},
		{K: 4, CapacityFactor: 1.1, S: -0.1, ConvergenceWindow: 30, MaxIterations: 10},
		{K: 4, CapacityFactor: 1.1, S: 1.5, ConvergenceWindow: 30, MaxIterations: 10},
		{K: 4, CapacityFactor: 1.1, S: 0.5, ConvergenceWindow: 0, MaxIterations: 10},
		{K: 4, CapacityFactor: 1.1, S: 0.5, ConvergenceWindow: 30, MaxIterations: 0},
	}
	for i, cfg := range bad {
		if _, err := New(g, asn, cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	// Mismatched k between config and assignment.
	if _, err := New(g, partition.Hash(g, 3), DefaultConfig(4, 1)); err == nil {
		t.Error("k mismatch must error")
	}
	// Unassigned vertices must be rejected.
	if _, err := New(g, partition.NewAssignment(g.NumSlots(), 4), DefaultConfig(4, 1)); err == nil {
		t.Error("incomplete assignment must error")
	}
}

// TestConfigRejectsNonFinite checks that NaN and both infinities are
// refused in every float field: NaN passes a plain range comparison, and
// +Inf passes the lower-bound ones.
func TestConfigRejectsNonFinite(t *testing.T) {
	g := gen.Cube3D(3)
	asn := partition.Hash(g, 4)
	fields := map[string]func(*Config, float64){
		"S":              func(c *Config, v float64) { c.S = v },
		"CapacityFactor": func(c *Config, v float64) { c.CapacityFactor = v },
		"WorkloadWeight": func(c *Config, v float64) { c.WorkloadWeight = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig(4, 1)
			set(&cfg, v)
			if _, err := New(g, asn, cfg); err == nil {
				t.Errorf("%s = %v: New accepted the config", name, v)
			}
		}
	}
}

func TestImprovesHashCutOnMesh(t *testing.T) {
	g := gen.Cube3D(10) // 1000 vertices
	asn := partition.Hash(g, 9)
	before := partition.CutRatio(g, asn)
	p := mustNew(t, g, asn, DefaultConfig(9, 1))
	res := p.Run()
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	// Paper Figure 4A: hash starts near 0.9 and the iterative algorithm
	// removes at least 0.2 of cut ratio on meshes.
	if res.FinalCutRatio > before-0.2 {
		t.Fatalf("cut ratio %.3f -> %.3f: improvement below the paper's band", before, res.FinalCutRatio)
	}
	if err := p.Assignment().Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestCapacitiesNeverExceeded(t *testing.T) {
	g := gen.HolmeKim(1500, 5, 0.1, 2)
	asn := partition.Random(g, 9, 2) // balanced start: within capacity throughout
	cfg := DefaultConfig(9, 3)
	p := mustNew(t, g, asn, cfg)
	for i := 0; i < 150 && !p.Converged(); i++ {
		p.Step()
		if !partition.WithinCapacities(p.Assignment(), p.Capacities()) {
			t.Fatalf("iteration %d: capacity exceeded: sizes=%v caps=%v",
				i, p.Assignment().Sizes(), p.Capacities())
		}
	}
}

func TestQuotaWorstCaseProperty(t *testing.T) {
	// Even if every source partition fully uses its quota towards j, the
	// total inbound to j never exceeds its free capacity: (k−1)·⌊free/(k−1)⌋ ≤ free.
	f := func(free uint16, k uint8) bool {
		kk := int(k%32) + 2
		fr := int(free % 10000)
		q := fr / (kk - 1)
		return (kk-1)*q <= fr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroWillingnessNeverMoves(t *testing.T) {
	g := gen.Cube3D(5)
	asn := partition.Hash(g, 4)
	cfg := DefaultConfig(4, 1)
	cfg.S = 0 // paper: "A value of s = 0 causes no migration whatsoever"
	p := mustNew(t, g, asn, cfg)
	for i := 0; i < 40; i++ {
		st := p.Step()
		if st.Migrations != 0 || st.Requested != 0 {
			t.Fatalf("s=0 produced %d migrations", st.Migrations)
		}
	}
	if !p.Converged() {
		t.Fatal("zero-migration run must converge")
	}
}

func TestSingletonPartitionIsStable(t *testing.T) {
	g := gen.Cube3D(4)
	asn := partition.Hash(g, 1)
	p := mustNew(t, g, asn, DefaultConfig(1, 1))
	res := p.Run()
	if res.TotalMigrations != 0 {
		t.Fatalf("k=1 must never migrate, got %d", res.TotalMigrations)
	}
	if res.FinalCutRatio != 0 {
		t.Fatalf("k=1 cut ratio = %v", res.FinalCutRatio)
	}
}

func TestPerfectPartitioningIsStable(t *testing.T) {
	// Two disjoint cliques already split perfectly: no vertex should want
	// to move (its own partition always holds the most neighbours).
	g := graph.NewUndirected(0)
	for i := 0; i < 12; i++ {
		g.AddVertex()
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddEdge(graph.VertexID(i), graph.VertexID(j))
			g.AddEdge(graph.VertexID(i+6), graph.VertexID(j+6))
		}
	}
	asn := partition.NewAssignment(g.NumSlots(), 2)
	for i := 0; i < 6; i++ {
		asn.Assign(graph.VertexID(i), 0)
		asn.Assign(graph.VertexID(i+6), 1)
	}
	p := mustNew(t, g, asn, DefaultConfig(2, 1))
	res := p.Run()
	if res.TotalMigrations != 0 {
		t.Fatalf("perfect partitioning migrated %d times", res.TotalMigrations)
	}
	if res.ConvergedAt != 1 {
		t.Fatalf("ConvergedAt = %d, want 1 (no migration ever)", res.ConvergedAt)
	}
}

func TestStepStatsRecording(t *testing.T) {
	g := gen.Cube3D(5)
	cfg := DefaultConfig(4, 1)
	cfg.RecordEvery = 2
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	s0 := p.Step()
	s1 := p.Step()
	if s0.CutEdges < 0 {
		t.Fatal("iteration 0 must record cuts with RecordEvery=2")
	}
	if s1.CutEdges != -1 {
		t.Fatal("iteration 1 must skip cut recording with RecordEvery=2")
	}
	cfg2 := DefaultConfig(4, 1)
	cfg2.RecordEvery = 0
	p2 := mustNew(t, gen.Cube3D(5), partition.Hash(gen.Cube3D(5), 4), cfg2)
	if st := p2.Step(); st.CutEdges != -1 {
		t.Fatal("RecordEvery=0 must not record cuts")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() Result {
		g := gen.Cube3D(6)
		return mustNewT(g, partition.Hash(g, 4), DefaultConfig(4, 42)).Run()
	}
	r1, r2 := run(), run()
	if r1.Iterations != r2.Iterations || r1.FinalCutRatio != r2.FinalCutRatio ||
		r1.TotalMigrations != r2.TotalMigrations {
		t.Fatalf("same seed, different runs: %+v vs %+v", r1, r2)
	}
}

func mustNewT(g *graph.Graph, asn *partition.Assignment, cfg Config) *Partitioner {
	p, err := New(g, asn, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func TestConvergenceTimeReported(t *testing.T) {
	g := gen.Cube3D(6)
	p := mustNew(t, g, partition.Hash(g, 4), DefaultConfig(4, 1))
	res := p.Run()
	if !res.Converged {
		t.Fatal("expected convergence")
	}
	if res.ConvergedAt <= 0 || res.ConvergedAt > res.Iterations {
		t.Fatalf("ConvergedAt = %d outside (0, %d]", res.ConvergedAt, res.Iterations)
	}
	// The quiet window means total iterations ≈ ConvergedAt + window.
	if res.Iterations < res.ConvergedAt+DefaultConfig(4, 1).ConvergenceWindow {
		t.Fatalf("Iterations %d < ConvergedAt %d + window", res.Iterations, res.ConvergedAt)
	}
}

func TestMaxIterationsBound(t *testing.T) {
	g := gen.HolmeKim(500, 4, 0.1, 1)
	cfg := DefaultConfig(8, 1)
	cfg.MaxIterations = 5
	p := mustNew(t, g, partition.Hash(g, 8), cfg)
	res := p.Run()
	if res.Iterations > 5 {
		t.Fatalf("ran %d iterations, bound was 5", res.Iterations)
	}
	if res.Converged {
		t.Fatal("cannot have converged in 5 iterations with window 30")
	}
}

func TestRunPropertyInvariants(t *testing.T) {
	// For random small graphs and k, starting from a balanced assignment,
	// after a run: assignment valid, within capacities, cut ratio in [0,1].
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%6) + 2
		g := gen.HolmeKim(200, 3, 0.1, seed)
		asn := partition.Random(g, k, seed)
		cfg := DefaultConfig(k, seed)
		cfg.MaxIterations = 200
		p, err := New(g, asn, cfg)
		if err != nil {
			return false
		}
		res := p.Run()
		if err := p.Assignment().Validate(g); err != nil {
			return false
		}
		if !partition.WithinCapacities(p.Assignment(), p.Capacities()) {
			return false
		}
		return res.FinalCutRatio >= 0 && res.FinalCutRatio <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOverfullInitialPartitionOnlyDrains(t *testing.T) {
	// Hash placement ignores capacities, so a partition may start above
	// C(i). The quota rule must never let it grow further; it can only
	// drain. (Section 2.2's guarantee concerns migration-driven growth.)
	g := gen.HolmeKim(1000, 5, 0.1, 4)
	asn := partition.Hash(g, 9)
	p := mustNew(t, g, asn, DefaultConfig(9, 4))
	caps := p.Capacities()
	limit := make([]int, 9)
	for i := range limit {
		limit[i] = caps[i]
		if s := asn.Size(partition.ID(i)); s > limit[i] {
			limit[i] = s // initially overfull: may not grow
		}
	}
	for i := 0; i < 120 && !p.Converged(); i++ {
		p.Step()
		for pi := 0; pi < 9; pi++ {
			if s := p.Assignment().Size(partition.ID(pi)); s > limit[pi] {
				t.Fatalf("iteration %d: partition %d grew to %d above limit %d",
					i, pi, s, limit[pi])
			}
		}
	}
}

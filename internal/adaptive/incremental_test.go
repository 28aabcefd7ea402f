package adaptive

import (
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// newIncrementalEngine wires an idle program, a k-way hash assignment and
// an incremental adaptive service over g.
func newIncrementalEngine(t *testing.T, g *graph.Graph, k int, seed int64) (*bsp.Engine, *Service) {
	t.Helper()
	e, err := bsp.NewEngine(g, partition.Hash(g, k), idleProgram{}, bsp.Config{Workers: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.Incremental = true
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	return e, svc
}

// TestIncrementalReducesCutOnEngine mirrors the full-sweep quality pin:
// the active-set service must land in the same paper band.
func TestIncrementalReducesCutOnEngine(t *testing.T) {
	g := gen.Cube3D(8) // 512 vertices
	before := partition.CutRatio(g, partition.Hash(g, 4))
	e, svc := newIncrementalEngine(t, g, 4, 1)
	e.RunSupersteps(120)
	after := partition.CutRatio(g, e.Addr())
	if after > before-0.2 {
		t.Fatalf("cut ratio %.3f -> %.3f: incremental service below paper band", before, after)
	}
	if err := e.Addr().Validate(g); err != nil {
		t.Fatal(err)
	}
	if svc.TotalGranted() == 0 || svc.TotalRequested() < svc.TotalGranted() {
		t.Fatalf("bookkeeping: requested=%d granted=%d", svc.TotalRequested(), svc.TotalGranted())
	}
}

// TestIncrementalFrontierDrainsOnEngine pins the asymptotic win: once the
// partitioning settles and the engine goes quiet, a Plan pass examines a
// small residual set (quota-denied and still-unwilling vertices), far
// below |V| per superstep — then a mutation burst wakes only the region
// of change.
func TestIncrementalFrontierDrainsOnEngine(t *testing.T) {
	g := gen.Cube3D(8)
	n := g.NumVertices()
	e, svc := newIncrementalEngine(t, g, 4, 1)
	e.RunSupersteps(150)

	settled := svc.TotalExamined()
	e.RunSupersteps(30)
	tail := svc.TotalExamined() - settled
	if tail > 30*n/10 {
		t.Fatalf("settled service examined %d vertices over 30 supersteps (|V|=%d) — not incremental", tail, n)
	}

	// A small stream burst must wake the touched region, not the world.
	next := graph.VertexID(g.NumSlots())
	batch := graph.Batch{
		{Kind: graph.MutAddVertex, U: next},
		{Kind: graph.MutAddEdge, U: next, V: 0},
		{Kind: graph.MutAddEdge, U: next, V: 1},
	}
	e.SetStream(graph.NewSliceStream([]graph.Batch{batch}))
	before := svc.TotalExamined()
	e.RunSupersteps(2)
	woken := svc.TotalExamined() - before
	if woken == 0 {
		t.Fatal("mutation burst woke nothing")
	}
	if woken > n/2 {
		t.Fatalf("3-mutation burst triggered %d examinations of |V|=%d", woken, n)
	}
	if e.Addr().Of(next) == partition.None {
		t.Fatal("streamed vertex was not placed")
	}
	if err := e.Addr().Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesFullSweepUnderChurn runs the same engine+stream
// twice — full sweep vs active set — and checks the incremental service
// stays in the same cut band while examining far fewer vertices.
func TestIncrementalMatchesFullSweepUnderChurn(t *testing.T) {
	build := func(incremental bool) (float64, *Service) {
		g := gen.Cube3D(7)
		e, err := bsp.NewEngine(g, partition.Hash(g, 4), idleProgram{}, bsp.Config{Workers: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(3)
		cfg.Incremental = incremental
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
		// Converge, then stream churn.
		e.RunSupersteps(100)
		scratch := g.Clone()
		ff := gen.DefaultForestFire()
		var batches []graph.Batch
		for i := 0; i < 10; i++ {
			b := gen.ForestFireExpansion(scratch, 10, ff, int64(i))
			scratch.Apply(b)
			batches = append(batches, b)
		}
		e.SetStream(graph.NewSliceStream(batches))
		e.RunSupersteps(60)
		if err := e.Addr().Validate(g); err != nil {
			t.Fatal(err)
		}
		return partition.CutRatio(g, e.Addr()), svc
	}
	fullCut, fullSvc := build(false)
	incCut, incSvc := build(true)
	if diff := incCut - fullCut; diff > 0.10 || diff < -0.10 {
		t.Fatalf("incremental cut %.3f not comparable to full sweep %.3f", incCut, fullCut)
	}
	if incSvc.TotalExamined() >= fullSvc.TotalExamined() {
		t.Fatalf("incremental examined %d >= full sweep %d", incSvc.TotalExamined(), fullSvc.TotalExamined())
	}
}

// TestIncrementalHotSpotWakesHotPartition checks the capacity-shift wake:
// with HotSpotAware on, vertices of an overloaded partition re-enter the
// frontier even after settling, so load drains exactly as with the full
// sweep.
func TestIncrementalHotSpotWakesHotPartition(t *testing.T) {
	run := func(incremental bool) int {
		g := gen.Cube3D(7)
		k := 4
		// Pathological start: everything on partition 0, so partition 0
		// measures hot as soon as costs exist.
		asn := partition.NewAssignment(g.NumSlots(), k)
		g.ForEachVertex(func(v graph.VertexID) { asn.Assign(v, 0) })
		prog := countProgram{}
		e, err := bsp.NewEngine(g, asn, prog, bsp.Config{Workers: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(5)
		cfg.HotSpotAware = true
		cfg.Incremental = incremental
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
		e.RunSupersteps(80)
		return svc.TotalGranted()
	}
	full := run(false)
	inc := run(true)
	if inc == 0 {
		t.Fatal("incremental hot-spot drain never migrated")
	}
	// The drain volume must be in the same ballpark (same mechanism,
	// different visiting schedules).
	if inc < full/4 {
		t.Fatalf("incremental drained %d vs full sweep %d", inc, full)
	}
}

// countProgram never halts, so every partition accrues compute cost and
// the hot-spot statistics are live.
type countProgram struct{}

func (countProgram) Init(ctx *bsp.VertexContext[struct{}]) any { return 0 }
func (countProgram) Compute(ctx *bsp.VertexContext[struct{}], _ []struct{}) {
	ctx.SetValue(ctx.Value().(int) + 1)
}

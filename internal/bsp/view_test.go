package bsp

import (
	"sync"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// viewProbe is a Repartitioner that records what the View accessors report
// at each barrier without ever requesting a migration.
type viewProbe struct {
	mu       sync.Mutex
	k        int
	workers  int
	vertices int
	costLens []int
}

func (p *viewProbe) Plan(v *View) []MigrationRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.k = v.K()
	p.workers = v.Workers()
	p.vertices = v.Graph().NumVertices()
	p.costLens = append(p.costLens, len(v.WorkerCosts()))
	if v.Addr().Of(0) >= partition.ID(v.K()) {
		panic("assignment outside partition range")
	}
	return nil
}

// TestViewAccessors pins the read-only system state a Repartitioner sees:
// partition count, worker count, topology, addressing, per-partition costs
// (absent before the first superstep completes).
func TestViewAccessors(t *testing.T) {
	g := graph.NewUndirected(4)
	a, b := g.AddVertex(), g.AddVertex()
	g.AddVertex()
	g.AddVertex()
	g.AddEdge(a, b)
	probe := &viewProbe{}
	e, err := NewEngine(g, partition.Hash(g, 2), progFuncs[struct{}]{
		init:    func(ctx *VertexContext[struct{}]) any { return nil },
		compute: func(ctx *VertexContext[struct{}], msgs []struct{}) { ctx.VoteToHalt() },
	}, Config{Workers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(probe)
	e.RunSupersteps(2)
	if probe.k != 2 || probe.workers != 3 || probe.vertices != 4 {
		t.Errorf("view reported k=%d workers=%d vertices=%d", probe.k, probe.workers, probe.vertices)
	}
	// WorkerCosts is per partition once the first superstep has run.
	if len(probe.costLens) != 2 || probe.costLens[len(probe.costLens)-1] != 2 {
		t.Errorf("cost vector lengths = %v", probe.costLens)
	}
}

// TestContextTopologyAccessorsAndAggregates covers the vertex-context
// topology views (Degree, Neighbors, NeighborCursor, InNeighbors) and the
// aggregator read-back path in one small run.
func TestContextTopologyAccessorsAndAggregates(t *testing.T) {
	g := graph.NewUndirected(3)
	a, b, c := g.AddVertex(), g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	var (
		mu       sync.Mutex
		deg      int
		nbrs     int
		inNbrs   int
		cursored int
		aggSeen  float64
		maxSeen  float64
	)
	prog := progFuncs[struct{}]{
		init: func(ctx *VertexContext[struct{}]) any { return nil },
		compute: func(ctx *VertexContext[struct{}], msgs []struct{}) {
			ctx.Aggregate("mass", 1)
			ctx.AggregateMax("peak", float64(ctx.ID()))
			if ctx.ID() == a {
				mu.Lock()
				deg = ctx.Degree()
				nbrs = len(ctx.Neighbors())
				inNbrs = len(ctx.InNeighbors())
				cursored = 0
				for cur := ctx.NeighborCursor(); ; {
					chunk := cur.NextChunk()
					if chunk == nil {
						break
					}
					cursored += len(chunk)
				}
				if ctx.Superstep() == 1 {
					aggSeen = ctx.Aggregated("mass")
					maxSeen = ctx.Aggregated("peak")
				}
				mu.Unlock()
			}
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(struct{}{}) // keep everyone alive one more step
			} else {
				ctx.VoteToHalt()
			}
		},
	}
	e, err := NewEngine(g, partition.Hash(g, 2), prog, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.RunSupersteps(2)
	if deg != 2 || nbrs != 2 || inNbrs != 2 || cursored != 2 {
		t.Errorf("topology views: deg=%d neighbors=%d in=%d cursor=%d, want all 2", deg, nbrs, inNbrs, cursored)
	}
	if aggSeen != 3 {
		t.Errorf("sum aggregator read %v, want 3 (one per vertex)", aggSeen)
	}
	if maxSeen != float64(c) {
		t.Errorf("max aggregator read %v, want %v", maxSeen, float64(c))
	}
}

// TestSummarize pins the history fold the analytics experiments report.
func TestSummarize(t *testing.T) {
	h := []SuperstepStats{
		{Time: 2, ActiveVertices: 5, LocalMsgs: 3, RemoteMsgs: 4, MigrationsStarted: 1, MigrationsCompleted: 0, Mutations: 2},
		{Time: 3, ActiveVertices: 1, LocalMsgs: 0, RemoteMsgs: 6, MigrationsStarted: 0, MigrationsCompleted: 1, Mutations: 0},
	}
	got := Summarize(h)
	want := RunTotals{Supersteps: 2, Time: 5, ActiveVertices: 6, LocalMsgs: 3,
		RemoteMsgs: 10, MigrationsStarted: 1, MigrationsCompleted: 1, Mutations: 2}
	if got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
	if got := Summarize(nil); got != (RunTotals{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
}

package apps

import (
	"math"
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func newEngine[M any](t *testing.T, g *graph.Graph, k int, prog bsp.Program[M]) *bsp.Engine {
	t.Helper()
	e, err := bsp.NewEngine(g, partition.Hash(g, k), prog, bsp.Config{Workers: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// suiteProg holds a program of this package whatever its message type, so
// that one table can list programs of different message types.
type suiteProg interface {
	// start builds an engine over g running the program.
	start(g *graph.Graph, asn *partition.Assignment, cfg bsp.Config) (*bsp.Engine, error)
	// withoutCombiner returns the program wrapped in WithoutCombiner.
	withoutCombiner() suiteProg
	// program returns the program, for VerifyStreaming.
	program() any
}

// suite wraps p as a suiteProg.
func suite[M any](p bsp.Program[M]) suiteProg { return progOf[M]{p} }

type progOf[M any] struct{ p bsp.Program[M] }

func (s progOf[M]) start(g *graph.Graph, asn *partition.Assignment, cfg bsp.Config) (*bsp.Engine, error) {
	return bsp.NewEngine(g, asn, s.p, cfg)
}

func (s progOf[M]) withoutCombiner() suiteProg { return progOf[M]{WithoutCombiner[M]{P: s.p}} }

func (s progOf[M]) program() any { return s.p }

// bfsDistances is the ground truth for SSSP.
func bfsDistances(g *graph.Graph, src graph.VertexID) map[graph.VertexID]int {
	dist := map[graph.VertexID]int{src: 0}
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestSSSPMatchesBFS(t *testing.T) {
	g := gen.Cube3D(5) // 125 vertices
	e := newEngine(t, g, 4, NewSSSP(0))
	if _, done := e.RunUntilQuiescent(200); !done {
		t.Fatal("SSSP did not quiesce")
	}
	want := bfsDistances(g, 0)
	g.ForEachVertex(func(v graph.VertexID) {
		got := e.Value(v).(float64)
		if float64(want[v]) != got {
			t.Fatalf("dist(%d) = %v, want %d", v, got, want[v])
		}
	})
}

func TestSSSPUnreachableStaysInfinite(t *testing.T) {
	g := graph.NewUndirected(0)
	a, b := g.AddVertex(), g.AddVertex()
	c, d := g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	g.AddEdge(c, d) // disconnected pair
	e := newEngine(t, g, 2, NewSSSP(a))
	e.RunUntilQuiescent(50)
	if !math.IsInf(e.Value(c).(float64), 1) {
		t.Fatal("unreachable vertex must stay at +Inf")
	}
	if e.Value(b).(float64) != 1 {
		t.Fatal("neighbour of source must be at distance 1")
	}
}

func TestWCCFindsComponents(t *testing.T) {
	g := graph.NewUndirected(0)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // second component; 5 isolated
	e := newEngine(t, g, 3, NewWCC())
	if _, done := e.RunUntilQuiescent(100); !done {
		t.Fatal("WCC did not quiesce")
	}
	for _, v := range []graph.VertexID{0, 1, 2} {
		if e.Value(v).(int64) != 0 {
			t.Fatalf("vertex %d label = %v, want 0", v, e.Value(v))
		}
	}
	for _, v := range []graph.VertexID{3, 4} {
		if e.Value(v).(int64) != 3 {
			t.Fatalf("vertex %d label = %v, want 3", v, e.Value(v))
		}
	}
	if e.Value(5).(int64) != 5 {
		t.Fatal("isolated vertex must keep its own label")
	}
}

func TestPageRankConservesMass(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.1, 1)
	n := g.NumVertices()
	e := newEngine(t, g, 4, NewPageRank(n, 25))
	e.RunUntilQuiescent(60)
	sum := 0.0
	minRank := math.Inf(1)
	g.ForEachVertex(func(v graph.VertexID) {
		r := e.Value(v).(float64)
		sum += r
		if r < minRank {
			minRank = r
		}
	})
	// Undirected connected-ish graph with no dangling mass: sum ≈ 1.
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("rank mass = %.4f, want ≈1", sum)
	}
	if minRank < (1-0.85)/float64(n)*0.99 {
		t.Fatalf("minimum rank %.2g below teleport floor", minRank)
	}
}

func TestPageRankHubsRankHigher(t *testing.T) {
	// A star: the hub must out-rank every leaf.
	g := graph.NewUndirected(0)
	hub := g.AddVertex()
	for i := 0; i < 20; i++ {
		leaf := g.AddVertex()
		g.AddEdge(hub, leaf)
	}
	e := newEngine(t, g, 2, NewPageRank(g.NumVertices(), 30))
	e.RunUntilQuiescent(60)
	hubRank := e.Value(hub).(float64)
	g.ForEachVertex(func(v graph.VertexID) {
		if v != hub && e.Value(v).(float64) >= hubRank {
			t.Fatalf("leaf %d out-ranks the hub", v)
		}
	})
}

func TestTunkRankPopularUsersGainInfluence(t *testing.T) {
	// a and b both mention celebrity c; c mentions nobody.
	g := graph.NewDirected(0)
	a, b, c := g.AddVertex(), g.AddVertex(), g.AddVertex()
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	e := newEngine(t, g, 2, NewTunkRank())
	e.RunSupersteps(5)
	if inf := e.Value(c).(float64); inf < 1.9 {
		t.Fatalf("celebrity influence = %v, want ≈2 (two mentioners)", inf)
	}
	if inf := e.Value(a).(float64); inf != 0 {
		t.Fatalf("unmentioned user influence = %v, want 0", inf)
	}
}

func TestTunkRankNeverHalts(t *testing.T) {
	g := graph.NewDirected(0)
	a, b := g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	e := newEngine(t, g, 2, NewTunkRank())
	e.RunSupersteps(10)
	if e.Quiescent() {
		t.Fatal("continuous TunkRank must not quiesce")
	}
}

func TestMaxCliqueOnKnownGraph(t *testing.T) {
	// A 4-clique {0,1,2,3} with a pendant path 3-4-5.
	g := graph.NewUndirected(0)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	e := newEngine(t, g, 2, NewMaxClique())
	if _, done := e.RunUntilQuiescent(10); !done {
		t.Fatal("clique search did not quiesce")
	}
	if got := e.Aggregated("maxclique.size"); got != 4 {
		t.Fatalf("max clique size = %v, want 4", got)
	}
	// Vertex 0's clique must be exactly {0,1,2,3}.
	cl := Clique(e.Value(0))
	if len(cl) != 4 {
		t.Fatalf("vertex 0 clique = %v, want 4 members", cl)
	}
	for i, want := range []graph.VertexID{0, 1, 2, 3} {
		if cl[i] != want {
			t.Fatalf("clique = %v, want [0 1 2 3]", cl)
		}
	}
	// Every reported clique must actually be a clique.
	g.ForEachVertex(func(v graph.VertexID) {
		c := Clique(e.Value(v))
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(c[i], c[j]) {
					t.Fatalf("vertex %d reported non-clique %v", v, c)
				}
			}
		}
	})
}

func TestMaxCliqueIsolatedVertex(t *testing.T) {
	g := graph.NewUndirected(0)
	g.AddVertex()
	e := newEngine(t, g, 1, NewMaxClique())
	if _, done := e.RunUntilQuiescent(5); !done {
		t.Fatal("did not quiesce")
	}
	if got := e.Aggregated("maxclique.size"); got != 1 {
		t.Fatalf("isolated vertex clique size = %v, want 1", got)
	}
}

func TestMaxCliqueRestartable(t *testing.T) {
	g := graph.NewUndirected(0)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.AddEdge(0, 1)
	e := newEngine(t, g, 2, NewMaxClique())
	e.RunUntilQuiescent(10)
	if got := e.Aggregated("maxclique.size"); got != 2 {
		t.Fatalf("first run clique = %v, want 2", got)
	}
	// Grow a triangle, reset, rerun: the paper's freeze-compute-repeat loop.
	e.SetStream(graph.NewSliceStream([]graph.Batch{{
		{Kind: graph.MutAddEdge, U: 1, V: 2},
		{Kind: graph.MutAddEdge, U: 0, V: 2},
	}}))
	e.RunSuperstep() // consume the batch
	e.ResetComputation()
	if _, done := e.RunUntilQuiescent(10); !done {
		t.Fatal("second run did not quiesce")
	}
	if got := e.Aggregated("maxclique.size"); got != 3 {
		t.Fatalf("after growth clique = %v, want 3", got)
	}
}

func TestCardiacWavePropagates(t *testing.T) {
	g := gen.Mesh3D(6, 6, 1)
	c := NewCardiac()
	e := newEngine(t, g, 2, c)
	e.RunSupersteps(120)
	// The excitation starting at vertex 0 must have raised potentials
	// somewhere beyond the pacemaker.
	excited := 0
	g.ForEachVertex(func(v graph.VertexID) {
		if v != 0 && Potential(e.Value(v)) > 0.05 {
			excited++
		}
	})
	if excited == 0 {
		t.Fatal("excitation never propagated from the pacemaker")
	}
	if e.Aggregated("cardiac.maxV") <= 0 {
		t.Fatal("aggregator should report positive max potential")
	}
}

func TestCardiacStateStaysBounded(t *testing.T) {
	g := gen.Mesh3D(4, 4, 1)
	c := NewCardiac()
	e := newEngine(t, g, 2, c)
	e.RunSupersteps(300)
	g.ForEachVertex(func(v graph.VertexID) {
		st := e.Value(v).(cellState)
		for i, x := range st {
			if math.IsNaN(x) || math.Abs(x) > 10 {
				t.Fatalf("vertex %d var %d diverged: %v", v, i, x)
			}
		}
	})
}

func TestCardiacCloneValue(t *testing.T) {
	c := NewCardiac()
	st := cellState{1, 2, 3}
	cp := c.CloneValue(st).(cellState)
	cp[0] = 99
	if st[0] != 1 {
		t.Fatal("CloneValue must deep-copy")
	}
	// Non-cell values pass through.
	if c.CloneValue(42) != 42 {
		t.Fatal("foreign values must pass through unchanged")
	}
}

func TestCardiacCostDeclared(t *testing.T) {
	c := NewCardiac()
	if c.CostPerVertex() < 10 {
		t.Fatal("cardiac compute must be declared heavy (>32 equations)")
	}
}

func TestMaxCliqueCloneValue(t *testing.T) {
	mc := NewMaxClique()
	st := &cliqueState{phase: 2, clique: []graph.VertexID{1, 2}}
	cp := mc.CloneValue(st).(*cliqueState)
	cp.clique[0] = 9
	if st.clique[0] != 1 {
		t.Fatal("CloneValue must deep-copy the clique")
	}
}

package bsp

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// noticeProbe records, per superstep, which vertices computed and which of
// them saw a topology-change notice.
type noticeProbe struct {
	mu       sync.Mutex
	computed map[int][]graph.VertexID
	noticed  map[int][]graph.VertexID
}

func newNoticeProbe() *noticeProbe {
	return &noticeProbe{
		computed: make(map[int][]graph.VertexID),
		noticed:  make(map[int][]graph.VertexID),
	}
}

func (p *noticeProbe) Init(ctx *VertexContext[struct{}]) any { return nil }

func (p *noticeProbe) Compute(ctx *VertexContext[struct{}], msgs []struct{}) {
	p.mu.Lock()
	p.computed[ctx.Superstep()] = append(p.computed[ctx.Superstep()], ctx.ID())
	if ctx.TopologyChanged() {
		p.noticed[ctx.Superstep()] = append(p.noticed[ctx.Superstep()], ctx.ID())
	}
	p.mu.Unlock()
	ctx.VoteToHalt()
}

func (p *noticeProbe) at(m map[int][]graph.VertexID, step int) []graph.VertexID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]graph.VertexID(nil), m[step]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ids(vs ...graph.VertexID) []graph.VertexID { return vs }

// TestTopologyChangeNotices pins the notice contract: a vertex touched by
// the batch applied at barrier t computes superstep t+1 with
// TopologyChanged true — including the ex-neighbours of a removed vertex,
// which have no surviving edge back to the cause — and the notice expires
// after exactly one superstep.
func TestTopologyChangeNotices(t *testing.T) {
	g := graph.NewUndirected(4)
	a, b, c, d := g.AddVertex(), g.AddVertex(), g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d) // path a-b-c-d
	prog := newNoticeProbe()
	e, err := NewEngine(g, partition.Hash(g, 2), prog, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutRemoveVertex, U: c}},
		{{Kind: graph.MutAddEdge, U: a, V: d}},
	}))

	// Superstep 0: everyone boots, no notices; barrier removes c.
	e.RunSuperstep()
	if got := prog.at(prog.noticed, 0); len(got) != 0 {
		t.Fatalf("superstep 0 saw notices %v, want none", got)
	}

	// Superstep 1: b and d — c's ex-neighbours, with no messages and no
	// surviving edge to the removed vertex — must be woken with a notice.
	e.RunSuperstep()
	if got, want := prog.at(prog.noticed, 1), ids(b, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("superstep 1 notices = %v, want %v", got, want)
	}
	if got, want := prog.at(prog.computed, 1), ids(b, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("superstep 1 computed = %v, want %v", got, want)
	}

	// Superstep 2: the a-d edge add from barrier 1 notifies its endpoints;
	// b's notice from barrier 0 has expired.
	e.RunSuperstep()
	if got, want := prog.at(prog.noticed, 2), ids(a, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("superstep 2 notices = %v, want %v", got, want)
	}

	// Superstep 3: all notices expired, nothing left to do.
	e.RunSuperstep()
	if got := prog.at(prog.noticed, 3); len(got) != 0 {
		t.Fatalf("superstep 3 saw notices %v, want none", got)
	}
	if !e.Quiescent() {
		t.Fatal("engine should be quiescent")
	}
}

// TestVertexContextTopology pins the NeighborCursor membership probe and
// the NumVertices context accessor against a live mutation.
func TestVertexContextTopology(t *testing.T) {
	g := graph.NewUndirected(3)
	a, b, c := g.AddVertex(), g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	type obs struct {
		hasB, hasC bool
		n          int
	}
	var (
		mu   sync.Mutex
		last obs
	)
	prog := progFuncs[struct{}]{
		init: func(ctx *VertexContext[struct{}]) any { return nil },
		compute: func(ctx *VertexContext[struct{}], msgs []struct{}) {
			if ctx.ID() == a {
				mu.Lock()
				nbrs := ctx.NeighborCursor()
				last = obs{hasB: nbrs.Contains(b), hasC: nbrs.Contains(c), n: ctx.NumVertices()}
				mu.Unlock()
			}
			ctx.VoteToHalt()
		},
	}
	e, err := NewEngine(g, partition.Hash(g, 2), prog, Config{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutRemoveEdge, U: a, V: b}, {Kind: graph.MutAddEdge, U: a, V: c}},
	}))
	e.RunSuperstep()
	if want := (obs{hasB: true, hasC: false, n: 3}); last != want {
		t.Fatalf("superstep 0 observed %+v, want %+v", last, want)
	}
	e.RunSuperstep()
	if want := (obs{hasB: false, hasC: true, n: 3}); last != want {
		t.Fatalf("superstep 1 observed %+v, want %+v", last, want)
	}
}

// progFuncs adapts two closures into a Program.
type progFuncs[M any] struct {
	init    func(ctx *VertexContext[M]) any
	compute func(ctx *VertexContext[M], msgs []M)
}

func (p progFuncs[M]) Init(ctx *VertexContext[M]) any          { return p.init(ctx) }
func (p progFuncs[M]) Compute(ctx *VertexContext[M], msgs []M) { p.compute(ctx, msgs) }

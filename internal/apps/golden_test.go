package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"xdgp/internal/adaptive"
	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Golden pins for the streaming programs: the exact vertex values and the
// exact per-superstep message and activity counts of a fixed workload are
// compared against constants, so a change to the engine or to a program
// that alters any result bit — or any delivered message — fails here even
// when it is self-consistent across worker counts and repeat runs.

const (
	goldenVertices = 2000
	goldenBatches  = 20
	goldenK        = 4
	goldenDrainCap = 3000
	goldenSource   = 1000
)

// goldenChurn draws the fixed churn stream: each batch removes 20 live
// edges, adds up to 20 new ones, removes a vertex if it is live and adds
// one (a no-op when the ID is live), tracked against a shadow of the seed
// graph so every edge mutation changes the graph.
func goldenChurn(g *graph.Graph) []graph.Batch {
	rng := rand.New(rand.NewSource(31))
	shadow := g.Clone()
	var edges [][2]graph.VertexID
	shadow.ForEachEdge(func(u, v graph.VertexID) { edges = append(edges, [2]graph.VertexID{u, v}) })
	batches := make([]graph.Batch, goldenBatches)
	for i := range batches {
		b := make(graph.Batch, 0, 42)
		for j := 0; j < 20; j++ {
			idx := rng.Intn(len(edges))
			u, v := edges[idx][0], edges[idx][1]
			edges[idx] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			if shadow.RemoveEdge(u, v) {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
			}
		}
		for j := 0; j < 20; j++ {
			u := graph.VertexID(rng.Intn(goldenVertices))
			v := graph.VertexID(rng.Intn(goldenVertices))
			if u != v && shadow.Has(u) && shadow.Has(v) && !shadow.HasEdge(u, v) {
				shadow.AddEdge(u, v)
				edges = append(edges, [2]graph.VertexID{u, v})
				b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
			}
		}
		// A vertex leaves with its edges (messages to it may be in
		// flight), and an ID joins.
		gone := graph.VertexID(rng.Intn(goldenVertices))
		if shadow.Has(gone) {
			kept := edges[:0]
			for _, e := range edges {
				if e[0] != gone && e[1] != gone {
					kept = append(kept, e)
				}
			}
			edges = kept
			shadow.RemoveVertex(gone)
			b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: gone})
		}
		joined := graph.VertexID(rng.Intn(goldenVertices + 50))
		b = append(b, graph.Mutation{Kind: graph.MutAddVertex, U: joined})
		shadow.EnsureVertex(joined)
		batches[i] = b
	}
	return batches
}

// hashValue folds one vertex value into h: every field of the program's
// state, floats by their bit patterns.
func hashValue(t *testing.T, h []byte, v any) []byte {
	t.Helper()
	switch st := v.(type) {
	case floodState:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(st.key))
		h = binary.LittleEndian.AppendUint32(h, uint32(st.hops))
		h = binary.LittleEndian.AppendUint64(h, uint64(st.parent))
		h = append(h, boolByte(st.booted))
	case *prState:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(st.rank))
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(st.share))
		h = append(h, boolByte(st.booted))
		for _, c := range st.in {
			h = binary.LittleEndian.AppendUint64(h, uint64(c.from))
			h = binary.LittleEndian.AppendUint64(h, math.Float64bits(c.share))
		}
	default:
		t.Fatalf("unexpected vertex value %T", v)
	}
	return h
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// runGolden executes one cell and returns the value hash and the stats
// hash (per superstep: local, remote and active counts).
func runGolden(t *testing.T, prog bsp.Program, workers int, adapt bool) (uint64, uint64) {
	t.Helper()
	g := gen.BarabasiAlbert(goldenVertices, 3, 17)
	batches := goldenChurn(g)
	e, err := bsp.NewEngine(g, partition.Hash(g, goldenK), prog, bsp.Config{Workers: workers, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if adapt {
		svc, err := adaptive.New(adaptive.DefaultConfig(19))
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
	}
	e.SetStream(graph.NewSliceStream(batches))
	if _, done := e.RunUntilQuiescent(goldenDrainCap); !done {
		t.Fatalf("no quiescence within %d supersteps", goldenDrainCap)
	}

	values := fnv.New64a()
	var buf []byte
	g.ForEachVertex(func(v graph.VertexID) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(v))
		buf = hashValue(t, buf, e.Value(v))
		values.Write(buf)
	})
	stats := fnv.New64a()
	for _, st := range e.History() {
		buf = buf[:0]
		for _, n := range []int{st.LocalMsgs, st.RemoteMsgs, st.ActiveVertices} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
		stats.Write(buf)
	}
	return values.Sum64(), stats.Sum64()
}

// TestAnalyticsGolden pins CC, SSSP and PageRank on a BA(2000, 3), k=4
// instance under 20 churn batches, run to quiescence, with and without the
// combiner and the adaptive service. Each row must reproduce its constants
// for Workers 1 and 3 alike. PageRank has no combiner, so its two combiner
// rows share constants.
func TestAnalyticsGolden(t *testing.T) {
	for _, c := range []struct {
		name          string
		prog          func() bsp.Program
		combine       bool
		adapt         bool
		values, stats uint64
	}{
		{"cc", func() bsp.Program { return NewStreamingCC() }, true, false, 0xa8991988b60f046f, 0xd6d0f419ff6156e7},
		{"cc", func() bsp.Program { return NewStreamingCC() }, true, true, 0xa8991988b60f046f, 0xe7d165c089323550},
		{"cc", func() bsp.Program { return NewStreamingCC() }, false, false, 0xa8991988b60f046f, 0x08af81f884179795},
		{"cc", func() bsp.Program { return NewStreamingCC() }, false, true, 0xa8991988b60f046f, 0xf593546ef7e1942d},
		{"sssp", func() bsp.Program { return NewStreamingSSSP(goldenSource) }, true, false, 0xdacfcc57fd473573, 0x7d28cc77b3de5a21},
		{"sssp", func() bsp.Program { return NewStreamingSSSP(goldenSource) }, true, true, 0xdacfcc57fd473573, 0x39378995cc5562fe},
		{"sssp", func() bsp.Program { return NewStreamingSSSP(goldenSource) }, false, false, 0xdacfcc57fd473573, 0x6c659c92c4bc916b},
		{"sssp", func() bsp.Program { return NewStreamingSSSP(goldenSource) }, false, true, 0xdacfcc57fd473573, 0x966b681c53d6346e},
		{"pagerank", func() bsp.Program { return NewStreamingPageRank() }, true, false, 0x6038f6ec54cdfb83, 0x73267227f13ef852},
		{"pagerank", func() bsp.Program { return NewStreamingPageRank() }, true, true, 0x6038f6ec54cdfb83, 0x0ea9addfb3b747bb},
		{"pagerank", func() bsp.Program { return NewStreamingPageRank() }, false, false, 0x6038f6ec54cdfb83, 0x73267227f13ef852},
		{"pagerank", func() bsp.Program { return NewStreamingPageRank() }, false, true, 0x6038f6ec54cdfb83, 0x0ea9addfb3b747bb},
	} {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s/combine=%v/adapt=%v/workers=%d", c.name, c.combine, c.adapt, workers)
			t.Run(name, func(t *testing.T) {
				prog := c.prog()
				if !c.combine {
					prog = WithoutCombiner{P: prog}
				}
				values, stats := runGolden(t, prog, workers, c.adapt)
				if values != c.values || stats != c.stats {
					t.Errorf("values %#016x stats %#016x, want %#016x and %#016x", values, stats, c.values, c.stats)
				}
			})
		}
	}
}

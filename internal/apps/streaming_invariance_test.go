package apps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"xdgp/internal/adaptive"
	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Invariance and determinism pins for the streaming programs: simulated
// stats and results must be byte-identical for any worker count (with and
// without combiners), two identical runs must agree bit-for-bit in both
// scheduling modes, and the choice of analytics program must not perturb
// the adaptive partitioner's RNG stream.

// invariancePlan is the fixed workload the pins run: a BA(300, 2) seed
// graph, 40 churn batches over its ID space consumed one per superstep,
// then a drain to quiescence with the adaptive service migrating
// underneath.
type invariancePlan struct {
	prog        func() suiteProg
	workers     int
	incremental bool
	adapt       bool
}

const (
	invVertices = 300
	invBatches  = 40
	invDrainCap = 900
	invK        = 4
)

func invariantChurn(seed int64) []graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	batches := make([]graph.Batch, invBatches)
	for i := range batches {
		b := make(graph.Batch, 0, 8)
		for j := 0; j < 8; j++ {
			u := graph.VertexID(rng.Intn(invVertices + 16))
			v := graph.VertexID(rng.Intn(invVertices + 16))
			switch r := rng.Intn(100); {
			case r < 45:
				b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
			case r < 75:
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
			case r < 90:
				b = append(b, graph.Mutation{Kind: graph.MutAddVertex, U: u})
			default:
				b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: u})
			}
		}
		batches[i] = b
	}
	return batches
}

// runInvariant executes the plan and returns the full superstep history,
// every live vertex's value rendered to a string (pointer values print
// their pointees, so this is a deep, comparable encoding), and the final
// assignment table.
func runInvariant(t *testing.T, p invariancePlan, batches []graph.Batch) ([]bsp.SuperstepStats, map[graph.VertexID]string, map[graph.VertexID]partition.ID) {
	t.Helper()
	g := gen.BarabasiAlbert(invVertices, 2, 5)
	e, err := p.prog().start(g, partition.Hash(g, invK), bsp.Config{Workers: p.workers, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.adapt {
		cfg := adaptive.DefaultConfig(13)
		cfg.Incremental = p.incremental
		svc, err := adaptive.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
	}
	e.SetStream(graph.NewSliceStream(batches))
	e.RunSupersteps(invBatches)
	if _, done := e.RunUntilQuiescent(invDrainCap); !done {
		t.Fatalf("no quiescence within %d supersteps", invDrainCap)
	}
	values := make(map[graph.VertexID]string)
	assign := make(map[graph.VertexID]partition.ID)
	g.ForEachVertex(func(v graph.VertexID) {
		values[v] = fmt.Sprintf("%v", e.Value(v))
		assign[v] = e.Addr().Of(v)
	})
	return e.History(), values, assign
}

// statsEqual compares superstep stats exactly, except Time, where float
// summation order across workers differs — 1e-9 matches the engine's own
// invariance tests.
func statsEqual(a, b bsp.SuperstepStats) bool {
	ta, tb := a.Time, b.Time
	a.Time, b.Time = 0, 0
	return a == b && math.Abs(ta-tb) < 1e-9
}

func diffRuns(t *testing.T, label string,
	h1 []bsp.SuperstepStats, v1 map[graph.VertexID]string, a1 map[graph.VertexID]partition.ID,
	h2 []bsp.SuperstepStats, v2 map[graph.VertexID]string, a2 map[graph.VertexID]partition.ID) {
	t.Helper()
	if len(h1) != len(h2) {
		t.Fatalf("%s: superstep counts differ: %d vs %d", label, len(h1), len(h2))
	}
	for i := range h1 {
		if !statsEqual(h1[i], h2[i]) {
			t.Fatalf("%s: superstep %d stats differ:\n%+v\n%+v", label, i, h1[i], h2[i])
		}
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("%s: vertex values differ", label)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("%s: final assignments differ", label)
	}
}

// streamingVariants lists each program in its combiner-on and (for those
// with a combiner) combiner-off forms.
func streamingVariants() []struct {
	name string
	prog func() suiteProg
} {
	return []struct {
		name string
		prog func() suiteProg
	}{
		{"cc", func() suiteProg { return suite(NewStreamingCC()) }},
		{"cc-nocombine", func() suiteProg { return suite(NewStreamingCC()).withoutCombiner() }},
		{"sssp", func() suiteProg { return suite(NewStreamingSSSP(0)) }},
		{"sssp-nocombine", func() suiteProg { return suite(NewStreamingSSSP(0)).withoutCombiner() }},
		{"pagerank", func() suiteProg { return suite(NewStreamingPageRank()) }},
	}
}

// TestStreamingWorkerCountInvariance pins that per-superstep stats,
// results and final assignments are byte-identical for Workers ∈ {1, 2, 8}
// under churn with migrations in flight, with and without combiners.
func TestStreamingWorkerCountInvariance(t *testing.T) {
	batches := invariantChurn(21)
	for _, v := range streamingVariants() {
		ref := invariancePlan{prog: v.prog, workers: 4, adapt: true}
		h0, v0, a0 := runInvariant(t, ref, batches)
		for _, workers := range []int{1, 2, 8} {
			p := ref
			p.workers = workers
			h, vals, asn := runInvariant(t, p, batches)
			diffRuns(t, fmt.Sprintf("%s workers=%d", v.name, workers), h0, v0, a0, h, vals, asn)
		}
	}
}

// TestStreamingCombinerEquivalence pins that combining changes only the
// message statistics, never the results: values and assignments match the
// uncombined run, and the combiner strictly reduces priced messages on
// this workload.
func TestStreamingCombinerEquivalence(t *testing.T) {
	batches := invariantChurn(22)
	for _, c := range []struct {
		name string
		on   func() suiteProg
		off  func() suiteProg
	}{
		{"cc", func() suiteProg { return suite(NewStreamingCC()) },
			func() suiteProg { return suite(NewStreamingCC()).withoutCombiner() }},
		{"sssp", func() suiteProg { return suite(NewStreamingSSSP(0)) },
			func() suiteProg { return suite(NewStreamingSSSP(0)).withoutCombiner() }},
	} {
		hOn, vOn, aOn := runInvariant(t, invariancePlan{prog: c.on, workers: 3, adapt: true}, batches)
		hOff, vOff, aOff := runInvariant(t, invariancePlan{prog: c.off, workers: 3, adapt: true}, batches)
		if !reflect.DeepEqual(vOn, vOff) {
			t.Fatalf("%s: combiner changed the results", c.name)
		}
		if !reflect.DeepEqual(aOn, aOff) {
			t.Fatalf("%s: combiner changed the final assignments", c.name)
		}
		on, off := bsp.Summarize(hOn), bsp.Summarize(hOff)
		if onMsgs, offMsgs := on.LocalMsgs+on.RemoteMsgs, off.LocalMsgs+off.RemoteMsgs; onMsgs >= offMsgs {
			t.Fatalf("%s: combiner did not reduce messages: %d vs %d", c.name, onMsgs, offMsgs)
		}
	}
}

// TestStreamingDeterminism pins bit-for-bit reproducibility: a fixed seed
// and churn stream give identical histories (Time included — the worker
// count is fixed), values and assignments across two full runs, in both
// the full-sweep and incremental scheduling modes.
func TestStreamingDeterminism(t *testing.T) {
	batches := invariantChurn(23)
	for _, v := range streamingVariants() {
		for _, incremental := range []bool{false, true} {
			p := invariancePlan{prog: v.prog, workers: 3, adapt: true, incremental: incremental}
			h1, v1, a1 := runInvariant(t, p, batches)
			h2, v2, a2 := runInvariant(t, p, batches)
			label := fmt.Sprintf("%s incremental=%v", v.name, incremental)
			if !reflect.DeepEqual(h1, h2) {
				t.Fatalf("%s: histories differ between identical runs", label)
			}
			diffRuns(t, label, h1, v1, a1, h2, v2, a2)
		}
	}
}

// TestAnalyticsDoNotPerturbPartitionerRNG pins that the adaptive service's
// decisions depend only on the topology and the assignment, not on which
// analytics program runs above it (hot-spot awareness off): streaming CC
// and streaming PageRank over the same seed and churn stream must land on
// identical final assignments.
func TestAnalyticsDoNotPerturbPartitionerRNG(t *testing.T) {
	batches := invariantChurn(24)
	for _, incremental := range []bool{false, true} {
		var assigns []map[graph.VertexID]partition.ID
		for _, prog := range []func() suiteProg{
			func() suiteProg { return suite(NewStreamingCC()) },
			func() suiteProg { return suite(NewStreamingPageRank()) },
		} {
			_, _, a := runInvariant(t, invariancePlan{prog: prog, workers: 2, adapt: true, incremental: incremental}, batches)
			assigns = append(assigns, a)
		}
		if !reflect.DeepEqual(assigns[0], assigns[1]) {
			t.Fatalf("incremental=%v: program choice perturbed the partitioner: assignments differ", incremental)
		}
	}
}

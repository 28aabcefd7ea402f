package bsp

import (
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// fanInProgram has every vertex send 1.0 to vertex 0 each superstep;
// vertex 0 accumulates what it receives. With a sum combiner, each worker
// should emit at most ONE message to vertex 0 per superstep.
type fanInProgram struct {
	combine bool
}

func (p *fanInProgram) Init(ctx *VertexContext[float64]) any { return 0.0 }

func (p *fanInProgram) Compute(ctx *VertexContext[float64], msgs []float64) {
	if ctx.ID() == 0 {
		total := ctx.Value().(float64)
		for _, m := range msgs {
			total += m
		}
		ctx.SetValue(total)
	}
	if ctx.Superstep() == 0 {
		ctx.SendTo(0, 1.0)
	} else {
		ctx.VoteToHalt()
	}
}

// combiningFanIn adds the combiner to fanInProgram.
type combiningFanIn struct{ fanInProgram }

func (p *combiningFanIn) CombineMessages(a, b float64) float64 { return a + b }

func fanGraph(n int) *graph.Graph {
	g := graph.NewUndirected(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	return g
}

func TestCombinerReducesMessageCount(t *testing.T) {
	const n, k = 40, 4
	run := func(prog Program[float64]) (msgs int, sum float64) {
		g := fanGraph(n)
		e, err := NewEngine(g, partition.Random(g, k, 1), prog, Config{Workers: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sts, _ := e.RunUntilQuiescent(10)
		for _, st := range sts {
			msgs += st.LocalMsgs + st.RemoteMsgs
		}
		return msgs, e.Value(0).(float64)
	}

	plainMsgs, plainSum := run(&fanInProgram{})
	combMsgs, combSum := run(&combiningFanIn{})

	// Same answer: all n contributions of 1.0 arrive either way.
	if plainSum != float64(n) || combSum != float64(n) {
		t.Fatalf("sums: plain %v, combined %v, want %d", plainSum, combSum, n)
	}
	// Without a combiner: one message per vertex (n). With: one per
	// worker (k).
	if plainMsgs != n {
		t.Fatalf("plain messages = %d, want %d", plainMsgs, n)
	}
	if combMsgs != k {
		t.Fatalf("combined messages = %d, want %d (one per worker)", combMsgs, k)
	}
}

func TestCombinerCostReflectsSavings(t *testing.T) {
	const n, k = 40, 4
	run := func(prog Program[float64]) float64 {
		g := fanGraph(n)
		e, err := NewEngine(g, partition.Random(g, k, 1), prog, Config{Workers: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		sts, _ := e.RunUntilQuiescent(10)
		for _, st := range sts {
			total += st.Time
		}
		return total
	}
	if plain, combined := run(&fanInProgram{}), run(&combiningFanIn{}); combined >= plain {
		t.Fatalf("combiner did not reduce simulated time: %v vs %v", combined, plain)
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"xdgp/internal/adaptive"
	"xdgp/internal/apps"
	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/stats"
)

// Apps is the "adaptation pays" experiment for the streaming analytics
// suite: each streaming program (connected components, SSSP, PageRank)
// runs over an adapting vs a static-hash partitioning of a Barabási–Albert
// graph while an edge-churn stream replays, and the churn phase's
// cut-message count (remote messages) and simulated time are compared.
// This quantifies the partition-quality → communication-cost → wall-clock
// translation the paper's system experiments are about, on live analytics
// instead of frozen topology. Every cell is oracle-checked: after the
// measurement window the engine is drained and diffed against a
// from-scratch recompute, so a reported win can never come from a wrong
// answer.
//
// XDGP_ANALYTICS_SCALE overrides the vertex count (the nightly run uses
// 100000); Options.App filters the matrix to one program.
func Apps(opt Options) (*Result, error) {
	opt = opt.normalize(1)
	res := newResult("apps", "Analytics suite: streaming apps under churn, adaptive vs static")

	n, warm, batches, drain := 20000, 260, 40, 2500
	if opt.Quick {
		n, warm, batches, drain = 1500, 160, 15, 2500
	}
	if s := os.Getenv("XDGP_ANALYTICS_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 100 {
			return nil, fmt.Errorf("bad XDGP_ANALYTICS_SCALE %q", s)
		}
		n = v
	}
	const k = 8

	type appCase struct {
		name  string
		start appStarter
	}
	matrix := []appCase{
		{"cc", startApp(apps.NewStreamingCC)},
		{"sssp", startApp(func() *apps.StreamingSSSP { return apps.NewStreamingSSSP(0) })},
		{"pagerank", startApp(apps.NewStreamingPageRank)},
	}
	if opt.App != "" {
		kept := matrix[:0]
		for _, c := range matrix {
			if c.name == opt.App {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("unknown app %q (known: cc, sssp, pagerank)", opt.App)
		}
		matrix = kept
	}
	rates := []struct {
		label string
		rate  float64
	}{{"lo", 0.002}, {"hi", 0.01}}

	// runCell replays the same churn against one engine and returns the
	// totals of the churn window (stream start → quiescence or cap).
	runCell := func(c appCase, churn []graph.Batch, adapt bool) (bsp.RunTotals, error) {
		g := gen.BarabasiAlbert(n, 3, opt.Seed)
		e, prog, err := c.start(g, partition.Hash(g, k), bsp.Config{
			Workers: opt.bspWorkers(k), Seed: opt.Seed,
		})
		if err != nil {
			return bsp.RunTotals{}, err
		}
		if adapt {
			acfg := adaptive.DefaultConfig(opt.Seed)
			acfg.Incremental = opt.Incremental
			acfg.WorkloadWeight = opt.WorkloadWeight
			svc, err := adaptive.New(acfg)
			if err != nil {
				return bsp.RunTotals{}, err
			}
			e.SetRepartitioner(svc)
		}
		// Warm phase: the analytics converge and (in the adaptive cell)
		// the partitioning re-arranges — not part of the measurement.
		e.RunUntilQuiescent(warm)
		mark := len(e.History())
		e.SetStream(graph.NewSliceStream(churn))
		if _, done := e.RunUntilQuiescent(drain); !done {
			return bsp.RunTotals{}, fmt.Errorf("%s adaptive=%v: no quiescence within %d supersteps", c.name, adapt, drain)
		}
		totals := bsp.Summarize(e.History()[mark:])
		// Settle any in-flight migrations, then oracle-check the answers.
		e.SetRepartitioner(nil)
		if _, done := e.RunUntilQuiescent(drain); !done {
			return bsp.RunTotals{}, fmt.Errorf("%s adaptive=%v: did not settle for verification", c.name, adapt)
		}
		if err := apps.VerifyStreaming(e, prog); err != nil {
			return bsp.RunTotals{}, fmt.Errorf("%s adaptive=%v: oracle divergence: %w", c.name, adapt, err)
		}
		return totals, nil
	}

	tb := stats.NewTable("app", "churn", "cut msgs static", "cut msgs adaptive", "reduction", "time static", "time adaptive")
	for _, c := range matrix {
		for _, r := range rates {
			// The churn stream is generated once against the warm
			// topology, so both cells replay identical mutations.
			churn := churnEdgeBatches(gen.BarabasiAlbert(n, 3, opt.Seed), r.rate, batches, opt.Seed+77)
			static, err := runCell(c, churn, false)
			if err != nil {
				return nil, err
			}
			adaptiveT, err := runCell(c, churn, true)
			if err != nil {
				return nil, err
			}
			reduction := 0.0
			if static.RemoteMsgs > 0 {
				reduction = 1 - float64(adaptiveT.RemoteMsgs)/float64(static.RemoteMsgs)
			}
			prefix := c.name + "." + r.label
			res.Values[prefix+".static.cutmsgs"] = float64(static.RemoteMsgs)
			res.Values[prefix+".adaptive.cutmsgs"] = float64(adaptiveT.RemoteMsgs)
			res.Values[prefix+".reduction"] = reduction
			res.Values[prefix+".static.time"] = static.Time
			res.Values[prefix+".adaptive.time"] = adaptiveT.Time
			res.Values[prefix+".adaptive.migrations"] = float64(adaptiveT.MigrationsCompleted)
			tb.AddRow(c.name, r.label,
				fmt.Sprintf("%d", static.RemoteMsgs),
				fmt.Sprintf("%d", adaptiveT.RemoteMsgs),
				fmt.Sprintf("%.1f%%", reduction*100),
				fmt.Sprintf("%.1f", static.Time),
				fmt.Sprintf("%.1f", adaptiveT.Time))
		}
	}
	res.Tables = append(res.Tables, tb)
	res.addNote("every cell oracle-checked against a from-scratch recompute after the measurement window — zero divergence")
	res.addNote("BA(%d, 3), k=%d, %d churn batches per rate (edge rewires at 0.2%% and 1%% of edges per batch)", n, k, batches)
	return res, nil
}

// appStarter builds an engine over g running a fresh program and returns
// the program too, for the oracle check.
type appStarter func(g *graph.Graph, asn *partition.Assignment, cfg bsp.Config) (*bsp.Engine, any, error)

// startApp returns the appStarter of the programs mk makes, whatever their
// message type.
func startApp[P bsp.Program[M], M any](mk func() P) appStarter {
	return func(g *graph.Graph, asn *partition.Assignment, cfg bsp.Config) (*bsp.Engine, any, error) {
		prog := mk()
		e, err := bsp.NewEngine[M](g, asn, prog, cfg)
		return e, prog, err
	}
}

// churnEdgeBatches pre-generates nBatches of edge churn against an evolving
// shadow of g: every batch removes rate·|E| random live edges and adds the
// same number of random non-edges, so the graph's size stays stationary
// while its wiring drifts — the paper's stationary-churn regime.
func churnEdgeBatches(shadow *graph.Graph, rate float64, nBatches int, seed int64) []graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	var verts []graph.VertexID
	shadow.ForEachVertex(func(v graph.VertexID) { verts = append(verts, v) })
	out := make([]graph.Batch, 0, nBatches)
	for i := 0; i < nBatches; i++ {
		ops := int(rate * float64(shadow.NumEdges()))
		if ops < 1 {
			ops = 1
		}
		var edges [][2]graph.VertexID
		shadow.ForEachEdge(func(u, v graph.VertexID) { edges = append(edges, [2]graph.VertexID{u, v}) })
		b := make(graph.Batch, 0, 2*ops)
		for j := 0; j < ops && len(edges) > 0; j++ {
			i := rng.Intn(len(edges))
			u, v := edges[i][0], edges[i][1]
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			if shadow.RemoveEdge(u, v) {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
			}
		}
		for j := 0; j < ops; j++ {
			for tries := 0; tries < 32; tries++ {
				u := verts[rng.Intn(len(verts))]
				v := verts[rng.Intn(len(verts))]
				if u != v && !shadow.HasEdge(u, v) {
					shadow.AddEdge(u, v)
					b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
					break
				}
			}
		}
		out = append(out, b)
	}
	return out
}

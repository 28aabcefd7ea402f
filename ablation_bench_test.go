package xdgp_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// capacity quotas of Section 2.2 (vs unquota'd greedy migration), the
// willingness-to-move coin of Section 2.3, the capacity factor, and the
// two future-work extensions (edge balance, hot-spot awareness).

import (
	"testing"

	"xdgp/internal/adaptive"
	"xdgp/internal/bsp"
	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/metis"
	"xdgp/internal/partition"
)

// BenchmarkAblationQuotas compares the heuristic with quotas (the paper's
// design) against the unquota'd variant that suffers node densification.
func BenchmarkAblationQuotas(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"quotas-on", false}, {"quotas-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var imb, cut float64
			for i := 0; i < b.N; i++ {
				g := gen.HolmeKim(1500, 6, 0.1, 1)
				cfg := core.DefaultConfig(3, 1)
				cfg.DisableQuotas = mode.disable
				cfg.RecordEvery = 0
				cfg.MaxIterations = 300
				p, err := core.New(g, partition.Random(g, 3, 1), cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := p.Run()
				imb = partition.Imbalance(p.Assignment())
				cut = res.FinalCutRatio
			}
			b.ReportMetric(imb, "imbalance")
			b.ReportMetric(cut, "cut")
		})
	}
}

// BenchmarkAblationWillingness sweeps the s coin (the Figure 1 knob) on
// one graph, reporting convergence time and cut.
func BenchmarkAblationWillingness(b *testing.B) {
	for _, s := range []float64{0.1, 0.5, 1.0} {
		name := map[float64]string{0.1: "s=0.1", 0.5: "s=0.5", 1.0: "s=1.0"}[s]
		b.Run(name, func(b *testing.B) {
			var conv, cut float64
			for i := 0; i < b.N; i++ {
				g := gen.Cube3D(12)
				cfg := core.DefaultConfig(9, 1)
				cfg.S = s
				cfg.RecordEvery = 0
				p, err := core.New(g, partition.Hash(g, 9), cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := p.Run()
				conv = float64(res.ConvergedAt)
				cut = res.FinalCutRatio
			}
			b.ReportMetric(conv, "conv")
			b.ReportMetric(cut, "cut")
		})
	}
}

// BenchmarkAblationCapacityFactor sweeps the capacity headroom: tighter
// capacities slow adaptation (smaller quotas), looser ones trade balance.
func BenchmarkAblationCapacityFactor(b *testing.B) {
	for _, f := range []float64{1.01, 1.10, 1.40} {
		name := map[float64]string{1.01: "cap=1.01", 1.10: "cap=1.10", 1.40: "cap=1.40"}[f]
		b.Run(name, func(b *testing.B) {
			var conv, cut, imb float64
			for i := 0; i < b.N; i++ {
				g := gen.Cube3D(12)
				cfg := core.DefaultConfig(9, 1)
				cfg.CapacityFactor = f
				cfg.RecordEvery = 0
				p, err := core.New(g, partition.Random(g, 9, 1), cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := p.Run()
				conv = float64(res.ConvergedAt)
				cut = res.FinalCutRatio
				imb = partition.Imbalance(p.Assignment())
			}
			b.ReportMetric(conv, "conv")
			b.ReportMetric(cut, "cut")
			b.ReportMetric(imb, "imbalance")
		})
	}
}

// BenchmarkAblationEdgeBalance compares vertex-balanced (the paper's
// default) against the edge-balanced extension on a hub-heavy graph,
// reporting the edge imbalance each mode ends with.
func BenchmarkAblationEdgeBalance(b *testing.B) {
	for _, mode := range []struct {
		name  string
		edges bool
	}{{"vertex-balanced", false}, {"edge-balanced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var vImb, eImb, cut float64
			for i := 0; i < b.N; i++ {
				g := gen.HolmeKim(3000, 8, 0.1, 3)
				cfg := core.DefaultConfig(6, 3)
				cfg.BalanceEdges = mode.edges
				cfg.RecordEvery = 0
				p, err := core.New(g, partition.Random(g, 6, 3), cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := p.Run()
				vImb = partition.Imbalance(p.Assignment())
				eImb = core.EdgeImbalance(g, p.Assignment())
				cut = res.FinalCutRatio
			}
			b.ReportMetric(vImb, "vertex-imbalance")
			b.ReportMetric(eImb, "edge-imbalance")
			b.ReportMetric(cut, "cut")
		})
	}
}

// BenchmarkAblationRepartitionBaseline contrasts the paper's adaptive
// heuristic with the "re-partition from scratch on every change" approach
// it argues against: after a 10 % growth burst, compare cut quality vs the
// number of vertices that must physically move (migration volume is what a
// running system pays).
func BenchmarkAblationRepartitionBaseline(b *testing.B) {
	b.Run("adaptive", func(b *testing.B) {
		var cut, movedFrac float64
		for i := 0; i < b.N; i++ {
			g := gen.Cube3D(12)
			cfg := core.DefaultConfig(9, 1)
			cfg.RecordEvery = 0
			p, err := core.New(g, partition.Hash(g, 9), cfg)
			if err != nil {
				b.Fatal(err)
			}
			p.Run() // settle before the change
			burst := gen.ForestFireExpansion(g, g.NumVertices()/10, gen.DefaultForestFire(), 2)
			p.ApplyBatch(burst)
			res := p.Run() // absorb the change
			cut = res.FinalCutRatio
			movedFrac = float64(res.TotalMigrations) / float64(g.NumVertices())
		}
		b.ReportMetric(cut, "cut")
		b.ReportMetric(movedFrac, "moved/|V|")
	})
	b.Run("metis-scratch-remap", func(b *testing.B) {
		var cut, movedFrac float64
		for i := 0; i < b.N; i++ {
			g := gen.Cube3D(12)
			old, err := metis.PartitionKWay(g, 9, metis.DefaultOptions(1))
			if err != nil {
				b.Fatal(err)
			}
			burst := gen.ForestFireExpansion(g, g.NumVertices()/10, gen.DefaultForestFire(), 2)
			g.Apply(burst)
			old.Grow(g.NumSlots())
			fresh, moved, err := metis.Repartition(g, 9, old, metis.DefaultOptions(3))
			if err != nil {
				b.Fatal(err)
			}
			cut = partition.CutRatio(g, fresh)
			movedFrac = float64(moved) / float64(g.NumVertices())
		}
		b.ReportMetric(cut, "cut")
		b.ReportMetric(movedFrac, "moved/|V|")
	})
}

// BenchmarkAblationHotSpot compares plain adaptation against the
// hot-spot-aware extension under a skewed starting placement.
func BenchmarkAblationHotSpot(b *testing.B) {
	for _, mode := range []struct {
		name  string
		aware bool
	}{{"plain", false}, {"hotspot-aware", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var hotLoad float64
			for i := 0; i < b.N; i++ {
				g := gen.HolmeKim(800, 4, 0.1, 5)
				asn := partition.NewAssignment(g.NumSlots(), 4)
				for _, v := range g.Vertices() {
					asn.Assign(v, 0)
				}
				e, err := bsp.NewEngine(g, asn, hotProg{}, bsp.Config{Workers: 4, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				cfg := adaptive.DefaultConfig(5)
				cfg.HotSpotAware = mode.aware
				svc, err := adaptive.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.SetRepartitioner(svc)
				e.RunSupersteps(40)
				hotLoad = float64(e.Addr().Size(0))
			}
			b.ReportMetric(hotLoad, "hot-partition-size")
		})
	}
}

type hotProg struct{}

func (hotProg) Init(ctx *bsp.VertexContext[struct{}]) any { return nil }
func (hotProg) Compute(ctx *bsp.VertexContext[struct{}], _ []struct{}) {
	ctx.SendTo(ctx.ID(), struct{}{})
}

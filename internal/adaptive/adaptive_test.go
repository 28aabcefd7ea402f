package adaptive

import (
	"math"
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// idleProgram is a minimal vertex program that immediately halts, leaving
// the engine to the background partitioner.
type idleProgram struct{}

func (idleProgram) Init(ctx *bsp.VertexContext[struct{}]) any              { return nil }
func (idleProgram) Compute(ctx *bsp.VertexContext[struct{}], _ []struct{}) { ctx.VoteToHalt() }

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{S: -0.1, CapacityFactor: 1.1}); err == nil {
		t.Fatal("negative S must error")
	}
	if _, err := New(Config{S: 0.5, CapacityFactor: 0.9}); err == nil {
		t.Fatal("capacity factor < 1 must error")
	}
	if _, err := New(Config{S: 0.5, CapacityFactor: 1.1}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigRejectsNonFinite checks that NaN and both infinities are
// refused in every float field.
func TestConfigRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config, float64){
		"S":              func(c *Config, v float64) { c.S = v },
		"CapacityFactor": func(c *Config, v float64) { c.CapacityFactor = v },
		"WorkloadWeight": func(c *Config, v float64) { c.WorkloadWeight = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig(1)
			set(&cfg, v)
			if _, err := New(cfg); err == nil {
				t.Errorf("%s = %v: New accepted the config", name, v)
			}
		}
	}
}

func TestAdaptiveReducesCutOnEngine(t *testing.T) {
	g := gen.Cube3D(8) // 512 vertices
	asn := partition.Hash(g, 4)
	before := partition.CutRatio(g, asn)
	e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	e.RunSupersteps(120)
	after := partition.CutRatio(g, e.Addr())
	if after > before-0.2 {
		t.Fatalf("cut ratio %.3f -> %.3f: engine-integrated heuristic below paper band", before, after)
	}
	if err := e.Addr().Validate(g); err != nil {
		t.Fatal(err)
	}
	if svc.TotalGranted() == 0 || svc.TotalRequested() < svc.TotalGranted() {
		t.Fatalf("bookkeeping: requested=%d granted=%d", svc.TotalRequested(), svc.TotalGranted())
	}
}

// TestAdaptiveWithDecoupledWorkers runs the background service on an
// engine whose compute-goroutine count differs from k: the service plans
// against partitions, so adaptation quality must not depend on workers.
func TestAdaptiveWithDecoupledWorkers(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		g := gen.Cube3D(8)
		asn := partition.Hash(g, 4)
		before := partition.CutRatio(g, asn)
		e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
		e.RunSupersteps(120)
		after := partition.CutRatio(g, e.Addr())
		if after > before-0.2 {
			t.Fatalf("workers=%d: cut ratio %.3f -> %.3f below paper band", workers, before, after)
		}
		if err := e.Addr().Validate(g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestAdaptiveRespectsCapacitiesFromBalancedStart(t *testing.T) {
	g := gen.HolmeKim(1200, 5, 0.1, 3)
	asn := partition.Random(g, 9, 3)
	e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	caps := partition.UniformCapacities(g.NumVertices(), 9, 1.10)
	for i := 0; i < 80; i++ {
		e.RunSuperstep()
		if !partition.WithinCapacities(e.Addr(), caps) {
			t.Fatalf("superstep %d: capacity exceeded: sizes=%v caps=%v",
				i, e.Addr().Sizes(), caps)
		}
	}
}

func TestZeroWillingnessNeverMigrates(t *testing.T) {
	g := gen.Cube3D(5)
	asn := partition.Hash(g, 4)
	e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.S = 0
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	for _, st := range e.RunSupersteps(10) {
		if st.MigrationsStarted != 0 {
			t.Fatal("s=0 must never migrate")
		}
	}
}

func TestSinglePartitionNoMigration(t *testing.T) {
	g := gen.Cube3D(4)
	asn := partition.Hash(g, 1)
	e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	for _, st := range e.RunSupersteps(5) {
		if st.MigrationsStarted != 0 {
			t.Fatal("k=1 must never migrate")
		}
	}
}

// skewProgram burns compute proportional to the vertex ID parity so that
// one partition measures hot, exercising the hot-spot extension.
type skewProgram struct{}

func (skewProgram) Init(ctx *bsp.VertexContext[struct{}]) any { return nil }
func (skewProgram) Compute(ctx *bsp.VertexContext[struct{}], _ []struct{}) {
	// Keep every vertex active so worker costs are measured each step.
	ctx.SendTo(ctx.ID(), struct{}{})
}

func TestHotSpotAwareShiftsLoadAway(t *testing.T) {
	// All vertices start on worker 0 (the hot spot); the hot-spot-aware
	// service must drain it faster towards the cool workers than the
	// plain service does in the same number of supersteps — and never
	// stack extra load onto it.
	build := func(hotAware bool) float64 {
		g := gen.HolmeKim(800, 4, 0.1, 5)
		asn := partition.NewAssignment(g.NumSlots(), 4)
		for _, v := range g.Vertices() {
			asn.Assign(v, 0)
		}
		e, err := bsp.NewEngine(g, asn, skewProgram{}, bsp.Config{Workers: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(5)
		cfg.HotSpotAware = hotAware
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetRepartitioner(svc)
		e.RunSupersteps(40)
		return float64(e.Addr().Size(0))
	}
	plain := build(false)
	aware := build(true)
	// Plain adaptation has no reason to leave a zero-cut placement; the
	// hot-spot drain must break the stay-preference and unload at least
	// half of the hot worker.
	if aware > plain/2 {
		t.Fatalf("hot-spot-aware did not drain the hot worker: %v vs plain %v", aware, plain)
	}
}

func TestAdaptiveAbsorbsStreamChurn(t *testing.T) {
	// Engine-level version of the Figure 7(b) absorption property: grow
	// the graph 10 % via forest fire mid-run; the adaptive engine must end
	// with a cut ratio far below static hash on the same final topology.
	g := gen.Cube3D(7) // 343 vertices
	burst := gen.ForestFireExpansion(g, g.NumVertices()/10, gen.DefaultForestFire(), 11)

	asn := partition.Hash(g, 4)
	e, err := bsp.NewEngine(g, asn, idleProgram{}, bsp.Config{Workers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	e.RunSupersteps(60) // settle
	e.SetStream(graph.NewSliceStream([]graph.Batch{burst}))
	e.RunSupersteps(60) // absorb

	adaptive := partition.CutRatio(e.Graph(), e.Addr())
	static := partition.CutRatio(e.Graph(), partition.Hash(e.Graph(), 4))
	if adaptive >= static*0.8 {
		t.Fatalf("adaptive %.3f vs static hash %.3f: churn not absorbed", adaptive, static)
	}
	if err := e.Addr().Validate(e.Graph()); err != nil {
		t.Fatal(err)
	}
}

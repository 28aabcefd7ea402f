package bsp

import (
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// echoProgram counts every message each vertex ever receives and sends one
// message per neighbour for a fixed number of rounds. It lets tests assert
// exact message-delivery counts.
type echoProgram struct {
	rounds int
}

func (p *echoProgram) Init(ctx *VertexContext[int]) any { return 0 }

func (p *echoProgram) Compute(ctx *VertexContext[int], msgs []int) {
	ctx.SetValue(ctx.Value().(int) + len(msgs))
	if ctx.Superstep() < p.rounds {
		ctx.SendToNeighbors(1)
	} else {
		ctx.VoteToHalt()
	}
}

func pairGraph() *graph.Graph {
	g := graph.NewUndirected(2)
	a, b := g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	return g
}

func newTestEngine[M any](t *testing.T, g *graph.Graph, k int, prog Program[M], cfg Config) *Engine {
	t.Helper()
	cfg.Workers = k
	asn := partition.Hash(g, k)
	e, err := NewEngine(g, asn, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineValidation(t *testing.T) {
	g := pairGraph()
	asn := partition.Hash(g, 2)
	if _, err := NewEngine(g, asn, &echoProgram{}, Config{Workers: -1}); err == nil {
		t.Fatal("negative Workers must error")
	}
	// Workers is decoupled from k: 0 means GOMAXPROCS, any positive count
	// is legal regardless of the assignment's partition count.
	if _, err := NewEngine(g, asn.Clone(), &echoProgram{}, Config{Workers: 0}); err != nil {
		t.Fatalf("Workers=0 (auto) must be accepted: %v", err)
	}
	if _, err := NewEngine(g, asn.Clone(), &echoProgram{}, Config{Workers: 3}); err != nil {
		t.Fatalf("Workers != k must be accepted: %v", err)
	}
	empty := partition.NewAssignment(g.NumSlots(), 2)
	if _, err := NewEngine(g, empty, &echoProgram{}, Config{Workers: 2}); err == nil {
		t.Fatal("invalid assignment must error")
	}
}

// sumCombineProgram floods float messages with a summing combiner — the
// PageRank-shaped workload that exercises cross-worker message folding.
type sumCombineProgram struct{ rounds int }

func (p *sumCombineProgram) Init(ctx *VertexContext[float64]) any { return 0.0 }

func (p *sumCombineProgram) Compute(ctx *VertexContext[float64], msgs []float64) {
	total := ctx.Value().(float64)
	for _, m := range msgs {
		total += m
	}
	ctx.SetValue(total)
	if ctx.Superstep() < p.rounds {
		ctx.SendToNeighbors(1.0)
	} else {
		ctx.VoteToHalt()
	}
}

func (p *sumCombineProgram) CombineMessages(a, b float64) float64 { return a + b }

// TestWorkerCountInvariance pins the worker/partition decoupling: the
// simulated statistics (message locality, per-partition costs, superstep
// time, vertex values) are identical whichever number of compute
// goroutines sweeps the vertices.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) (*Engine, []SuperstepStats) {
		g := gen.Cube3D(6) // 216 vertices, k=4 partitions
		asn := partition.Hash(g, 4)
		e, err := NewEngine(g, asn, &echoProgram{rounds: 3}, Config{Workers: workers, Seed: 1, RecordEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		stats, _ := e.RunUntilQuiescent(10)
		return e, stats
	}
	ref, refStats := run(4) // the old coupled configuration: one worker per partition
	for _, workers := range []int{1, 3, 7} {
		e, stats := run(workers)
		if len(stats) != len(refStats) {
			t.Fatalf("workers=%d: %d supersteps, want %d", workers, len(stats), len(refStats))
		}
		for i := range stats {
			got, want := stats[i], refStats[i]
			// Per-partition costs are summed over workers, so the float
			// addition order — and nothing else — may differ.
			if d := got.Time - want.Time; d > 1e-9 || d < -1e-9 {
				t.Fatalf("workers=%d superstep %d: time %v != reference %v",
					workers, i, got.Time, want.Time)
			}
			got.Time = want.Time
			if got != want {
				t.Fatalf("workers=%d superstep %d: stats %+v != reference %+v",
					workers, i, got, want)
			}
		}
		e.Graph().ForEachVertex(func(v graph.VertexID) {
			if e.Value(v) != ref.Value(v) {
				t.Fatalf("workers=%d: vertex %d value %v != reference %v",
					workers, v, e.Value(v), ref.Value(v))
			}
		})
	}
}

// TestWorkerCountInvarianceWithCombiner repeats the invariance pin for a
// combiner program: combining happens per source partition (the simulated
// machine where the fold physically occurs), so message counts and costs
// must not depend on how vertices are spread over compute goroutines.
func TestWorkerCountInvarianceWithCombiner(t *testing.T) {
	run := func(workers int) (*Engine, []SuperstepStats) {
		g := gen.Cube3D(6)
		asn := partition.Hash(g, 4)
		e, err := NewEngine(g, asn, &sumCombineProgram{rounds: 3}, Config{Workers: workers, Seed: 1, RecordEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		stats, _ := e.RunUntilQuiescent(10)
		return e, stats
	}
	ref, refStats := run(4)
	for _, workers := range []int{1, 3, 8} {
		e, stats := run(workers)
		if len(stats) != len(refStats) {
			t.Fatalf("workers=%d: %d supersteps, want %d", workers, len(stats), len(refStats))
		}
		for i := range stats {
			got, want := stats[i], refStats[i]
			if d := got.Time - want.Time; d > 1e-9 || d < -1e-9 {
				t.Fatalf("workers=%d superstep %d: time %v != reference %v",
					workers, i, got.Time, want.Time)
			}
			got.Time = want.Time
			if got != want {
				t.Fatalf("workers=%d superstep %d: stats %+v != reference %+v",
					workers, i, got, want)
			}
		}
		e.Graph().ForEachVertex(func(v graph.VertexID) {
			if e.Value(v) != ref.Value(v) {
				t.Fatalf("workers=%d: vertex %d value %v != reference %v",
					workers, v, e.Value(v), ref.Value(v))
			}
		})
	}
}

func TestMessageDeliveryNextSuperstep(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 3}, Config{Seed: 1})
	// Superstep 0: both send, nobody has received yet.
	e.RunSuperstep()
	if e.Value(0).(int) != 0 || e.Value(1).(int) != 0 {
		t.Fatal("messages must not arrive in the superstep they are sent")
	}
	// Superstep 1: each received exactly one message from the other.
	e.RunSuperstep()
	if e.Value(0).(int) != 1 || e.Value(1).(int) != 1 {
		t.Fatalf("after superstep 1: values %v %v, want 1 1", e.Value(0), e.Value(1))
	}
}

func TestQuiescenceAfterHalt(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 2}, Config{Seed: 1})
	stats, done := e.RunUntilQuiescent(10)
	if !done {
		t.Fatal("engine never became quiescent")
	}
	// rounds=2: sends at supersteps 0..1, last delivery consumed at 2,
	// halt votes at 3 with no messages in flight → 4 supersteps.
	if len(stats) > 5 {
		t.Fatalf("took %d supersteps to quiesce", len(stats))
	}
	// Each vertex received one message per superstep 1..2.
	if e.Value(0).(int) != 2 {
		t.Fatalf("value = %v, want 2", e.Value(0))
	}
}

func TestLocalVsRemoteMessageAccounting(t *testing.T) {
	// Two vertices on the same worker exchange local messages; two on
	// different workers exchange remote ones.
	g := graph.NewUndirected(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.AddEdge(0, 1) // same partition below
	g.AddEdge(2, 3) // split below
	asn := partition.NewAssignment(g.NumSlots(), 2)
	asn.Assign(0, 0)
	asn.Assign(1, 0)
	asn.Assign(2, 0)
	asn.Assign(3, 1)
	e, err := NewEngine(g, asn, &echoProgram{rounds: 1}, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := e.RunSuperstep()
	// Sends at superstep 0: 0↔1 (2 local), 2↔3 (2 remote).
	if st.LocalMsgs != 2 {
		t.Errorf("LocalMsgs = %d, want 2", st.LocalMsgs)
	}
	if st.RemoteMsgs != 2 {
		t.Errorf("RemoteMsgs = %d, want 2", st.RemoteMsgs)
	}
	if st.Time <= 0 {
		t.Error("superstep time must be positive")
	}
}

// TestDeferredMigrationDeliversAllMessages reproduces the paper's Figure 3
// scenario: V2 migrates while V1 keeps sending to it every superstep; with
// the deferred protocol no message may be lost.
func TestDeferredMigrationDeliversAllMessages(t *testing.T) {
	g := pairGraph()
	prog := &echoProgram{rounds: 8}
	asn := partition.NewAssignment(g.NumSlots(), 2)
	asn.Assign(0, 0)
	asn.Assign(1, 1)
	e, err := NewEngine(g, asn, prog, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Migrate vertex 1 to partition 0 at superstep 2's barrier, then back
	// at superstep 5's barrier.
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		switch v.Superstep() {
		case 2:
			return []MigrationRequest{{V: 1, To: 0}}
		case 5:
			return []MigrationRequest{{V: 1, To: 1}}
		}
		return nil
	}))
	e.RunUntilQuiescent(20)
	// Vertex 0 sends to 1 in supersteps 0..8 minus none: rounds=8 means
	// sends at 0..7 (8 messages), likewise 1→0. Every one must arrive.
	if got := e.Value(1).(int); got != 8 {
		t.Fatalf("vertex 1 received %d messages, want 8 (deferred migration lost some)", got)
	}
	if got := e.Value(0).(int); got != 8 {
		t.Fatalf("vertex 0 received %d messages, want 8", got)
	}
	// The migrations really happened.
	completed := 0
	for _, st := range e.History() {
		completed += st.MigrationsCompleted
	}
	if completed != 2 {
		t.Fatalf("completed %d migrations, want 2", completed)
	}
}

type repartFunc func(v *View) []MigrationRequest

func (f repartFunc) Plan(v *View) []MigrationRequest { return f(v) }

func TestMigrationUpdatesAddressingThenHome(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 10}, Config{Seed: 1})
	target := partition.ID(1 - int(e.Addr().Of(0)))
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		if v.Superstep() == 0 {
			return []MigrationRequest{{V: 0, To: target}}
		}
		return nil
	}))
	st0 := e.RunSuperstep()
	if st0.MigrationsStarted != 1 {
		t.Fatalf("MigrationsStarted = %d, want 1", st0.MigrationsStarted)
	}
	// Addressing updated immediately (notification), home still old.
	if e.Addr().Of(0) != target {
		t.Fatal("addressing must update at the decision barrier")
	}
	if e.home[0] == int32(target) {
		t.Fatal("home must lag one superstep (migrating state)")
	}
	st1 := e.RunSuperstep()
	if st1.MigrationsCompleted != 1 {
		t.Fatalf("MigrationsCompleted = %d, want 1", st1.MigrationsCompleted)
	}
	if e.home[0] != int32(target) {
		t.Fatal("home must update at the following barrier")
	}
}

func TestStreamMutationCreatesAndActivates(t *testing.T) {
	g := pairGraph()
	next := graph.VertexID(g.NumSlots())
	stream := graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutAddVertex, U: next}, {Kind: graph.MutAddEdge, U: next, V: 0}},
	})
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 4}, Config{Seed: 1})
	e.SetStream(stream)
	e.RunSuperstep() // applies the batch at the barrier
	if !e.Graph().Has(next) {
		t.Fatal("stream vertex not created")
	}
	if e.Addr().Of(next) == partition.None {
		t.Fatal("stream vertex not placed")
	}
	if e.Value(next) == nil {
		t.Fatal("stream vertex not initialised")
	}
	// It must compute in the next superstep and message its neighbour.
	before := e.Value(0).(int)
	e.RunSuperstep()
	e.RunSuperstep()
	if e.Value(0).(int) <= before {
		t.Fatal("new vertex's messages never reached vertex 0")
	}
}

func TestStreamRemovalRetiresVertex(t *testing.T) {
	g := pairGraph()
	stream := graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutRemoveVertex, U: 1}},
	})
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 6}, Config{Seed: 1})
	e.SetStream(stream)
	e.RunSuperstep()
	if e.Graph().Has(1) {
		t.Fatal("vertex 1 should be removed")
	}
	if e.Addr().Of(1) != partition.None {
		t.Fatal("removed vertex still addressed")
	}
	if e.Value(1) != nil {
		t.Fatal("removed vertex still has a value")
	}
	// Messages to the removed vertex are dropped, not delivered; the rest
	// of the computation proceeds without error.
	e.RunSupersteps(3)
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []SuperstepStats {
		g := gen.Cube3D(5)
		asn := partition.Hash(g, 4)
		e, err := NewEngine(g, asn, &echoProgram{rounds: 5}, Config{Workers: 4, Seed: 9, RecordEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e.RunSupersteps(6)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("superstep %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCheckpointRecoveryRestoresState(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 20}, Config{Seed: 1, CheckpointEvery: 4})
	e.RunSupersteps(4) // checkpoint taken at superstep counter 4
	valAtCP := e.Value(0).(int)
	superAtCP := e.Superstep()
	e.RunSupersteps(2)
	if e.Value(0).(int) <= valAtCP {
		t.Fatal("test precondition: value should grow between checkpoints")
	}
	e.ScheduleFailure(e.Superstep()) // fail at the next barrier
	st := e.RunSuperstep()
	if !st.Recovered {
		t.Fatal("failure did not trigger recovery")
	}
	if e.Superstep() != superAtCP {
		t.Fatalf("rolled back to superstep %d, want %d", e.Superstep(), superAtCP)
	}
	if got := e.Value(0).(int); got != valAtCP {
		t.Fatalf("value after recovery = %d, want checkpoint value %d", got, valAtCP)
	}
	// Replay must reach quiescence normally.
	if _, done := e.RunUntilQuiescent(40); !done {
		t.Fatal("engine never quiesced after recovery")
	}
}

func TestResetComputationReactivates(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 1}, Config{Seed: 1})
	if _, done := e.RunUntilQuiescent(10); !done {
		t.Fatal("no quiescence")
	}
	e.ResetComputation()
	if e.Quiescent() {
		t.Fatal("reset must reactivate vertices")
	}
	if e.Value(0).(int) != 0 {
		t.Fatal("reset must reinitialise values")
	}
	if _, done := e.RunUntilQuiescent(10); !done {
		t.Fatal("no quiescence after reset")
	}
}

func TestAggregators(t *testing.T) {
	g := pairGraph()
	prog := &aggProgram{}
	e := newTestEngine(t, g, 2, prog, Config{Seed: 1})
	e.RunSuperstep()
	if got := e.Aggregated("count"); got != 2 {
		t.Fatalf("sum aggregator = %v, want 2", got)
	}
	if got := e.Aggregated("maxid"); got != 1 {
		t.Fatalf("max aggregator = %v, want 1", got)
	}
}

type aggProgram struct{}

func (p *aggProgram) Init(ctx *VertexContext[struct{}]) any { return nil }
func (p *aggProgram) Compute(ctx *VertexContext[struct{}], msgs []struct{}) {
	ctx.Aggregate("count", 1)
	ctx.AggregateMax("maxid", float64(ctx.ID()))
	ctx.VoteToHalt()
}

func TestCostClockChargesRemoteMore(t *testing.T) {
	// Same topology and program; all-local vs all-remote placement. The
	// remote run must be slower on the cost clock — the effect that makes
	// partitioning matter at all.
	build := func(split bool) float64 {
		g := pairGraph()
		asn := partition.NewAssignment(g.NumSlots(), 2)
		asn.Assign(0, 0)
		if split {
			asn.Assign(1, 1)
		} else {
			asn.Assign(1, 0)
		}
		e, err := NewEngine(g, asn, &echoProgram{rounds: 4}, Config{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, st := range e.RunSupersteps(5) {
			total += st.Time
		}
		return total
	}
	local, remote := build(false), build(true)
	if remote <= local {
		t.Fatalf("remote placement (%.2f) must cost more than local (%.2f)", remote, local)
	}
}

func TestViewExposesWorkerCosts(t *testing.T) {
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 3}, Config{Seed: 1})
	var seen []float64
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		seen = append([]float64(nil), v.WorkerCosts()...)
		return nil
	}))
	e.RunSuperstep()
	if len(seen) != 2 {
		t.Fatalf("WorkerCosts length %d, want 2", len(seen))
	}
	positive := false
	for _, c := range seen {
		if c > 0 {
			positive = true
		}
	}
	if !positive {
		t.Fatal("worker costs should be positive after a computing superstep")
	}
}

func TestStreamVertexWithCustomPlacer(t *testing.T) {
	g := pairGraph()
	next := graph.VertexID(g.NumSlots())
	e, err := NewEngine(g, partition.Hash(g, 2), &echoProgram{rounds: 2}, Config{
		Workers: 2,
		Seed:    1,
		Placer:  func(v graph.VertexID, k int) partition.ID { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetStream(graph.NewSliceStream([]graph.Batch{{{Kind: graph.MutAddVertex, U: next}}}))
	e.RunSuperstep()
	if e.Addr().Of(next) != 1 {
		t.Fatalf("custom placer ignored: vertex placed at %d", e.Addr().Of(next))
	}
}

func TestRemovalOfVertexWithPendingMigration(t *testing.T) {
	// Decide a migration for vertex 0, then remove it from the stream at
	// the very barrier where the physical move would complete: the engine
	// must retire the vertex, drop the pending move, and stay consistent.
	g := pairGraph()
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 10}, Config{Seed: 1})
	target := partition.ID(1 - int(e.Addr().Of(0)))
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		if v.Superstep() == 0 {
			return []MigrationRequest{{V: 0, To: target}}
		}
		return nil
	}))
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		nil,                                   // superstep 0: migration decided at this barrier
		{{Kind: graph.MutRemoveVertex, U: 0}}, // superstep 1: removal races the move
	}))
	st0 := e.RunSuperstep()
	if st0.MigrationsStarted != 1 {
		t.Fatalf("MigrationsStarted = %d, want 1", st0.MigrationsStarted)
	}
	e.RunSuperstep() // completes the physical move, then applies the removal
	if e.Graph().Has(0) {
		t.Fatal("vertex 0 must be removed")
	}
	if e.Addr().Of(0) != partition.None {
		t.Fatal("removed vertex still addressed")
	}
	if len(e.pendingHome) != 0 {
		t.Fatalf("pending migrations leaked: %v", e.pendingHome)
	}
	if err := e.Addr().Validate(e.Graph()); err != nil {
		t.Fatal(err)
	}
	// The engine must keep running cleanly afterwards.
	for i := 0; i < 5; i++ {
		e.RunSuperstep()
	}
	if err := e.Addr().Validate(e.Graph()); err != nil {
		t.Fatal(err)
	}
}

func TestViewMutatedVertices(t *testing.T) {
	g := pairGraph()
	next := graph.VertexID(g.NumSlots())
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 4}, Config{Seed: 1})
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutAddVertex, U: next}, {Kind: graph.MutAddEdge, U: next, V: 0}},
		nil,
	}))
	var got [][]graph.VertexID
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		got = append(got, v.MutatedVertices())
		return nil
	}))
	e.RunSuperstep()
	e.RunSuperstep()
	if len(got) != 2 {
		t.Fatalf("planned %d times, want 2", len(got))
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range got[0] {
		seen[v] = true
	}
	if !seen[next] || !seen[0] {
		t.Fatalf("batch touched %v, want both %d and 0", got[0], next)
	}
	if got[1] != nil {
		t.Fatalf("empty barrier reported mutations: %v", got[1])
	}
}

func TestAccessorsReturnDefensiveCopies(t *testing.T) {
	g := gen.Cube3D(4)
	e := newTestEngine(t, g, 4, &echoProgram{rounds: 6}, Config{Seed: 1})
	var costsInPlan []float64
	e.SetRepartitioner(repartFunc(func(v *View) []MigrationRequest {
		costsInPlan = v.WorkerCosts()
		return nil
	}))
	e.RunSuperstep()
	e.RunSuperstep()
	if len(costsInPlan) != 4 {
		t.Fatalf("WorkerCosts len = %d, want 4", len(costsInPlan))
	}
	costsInPlan[0] = -12345
	if e.lastCosts[0] == -12345 {
		t.Fatal("WorkerCosts leaked the engine's internal slice")
	}

	hist := e.History()
	if len(hist) != 2 {
		t.Fatalf("History len = %d, want 2", len(hist))
	}
	hist[0].Superstep = -1
	if e.history[0].Superstep == -1 {
		t.Fatal("History leaked the engine's internal slice")
	}
}

func TestStreamSelfLoopStillPlacesVertex(t *testing.T) {
	// Regression: a rejected self-loop edge on a fresh ID materialises a
	// live vertex at the barrier; the engine must still place and
	// initialise it.
	g := pairGraph()
	loop := graph.VertexID(g.NumSlots())
	e := newTestEngine(t, g, 2, &echoProgram{rounds: 2}, Config{Seed: 1})
	e.SetStream(graph.NewSliceStream([]graph.Batch{
		{{Kind: graph.MutAddEdge, U: loop, V: loop}},
	}))
	e.RunSuperstep()
	if !e.Graph().Has(loop) {
		t.Fatal("self-loop endpoint not created")
	}
	if e.Addr().Of(loop) == partition.None {
		t.Fatal("self-loop vertex not placed")
	}
	if e.Value(loop) == nil {
		t.Fatal("self-loop vertex not initialised")
	}
	if err := e.Addr().Validate(e.Graph()); err != nil {
		t.Fatal(err)
	}
}

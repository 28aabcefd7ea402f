package bsp

import (
	"fmt"
	"slices"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Pins for the flat inbox: per-destination arrival order, in-flight
// messages to removed vertices, checkpoint replay with messages in flight,
// allocation-free steady supersteps and the release of the buffer at idle.

// tag names one message: the sending vertex and its send sequence within
// the sender's Compute call.
type tag struct {
	from graph.VertexID
	seq  int
}

// recordProgram has every vertex send, for rounds supersteps, a tag to each
// neighbour (seq 0) and a second tag to its first neighbour (seq 1). Every
// vertex records the tags it receives, per superstep, in arrival order.
// Messages are []tag; the combining variant concatenates them.
type recordProgram struct{ rounds int }

type recordValue map[int][]tag

func (p *recordProgram) Init(ctx *VertexContext) any { return recordValue{} }

func (p *recordProgram) Compute(ctx *VertexContext, msgs []any) {
	rec := ctx.Value().(recordValue)
	for _, m := range msgs {
		rec[ctx.Superstep()] = append(rec[ctx.Superstep()], m.([]tag)...)
	}
	if ctx.Superstep() >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	ctx.SendToNeighbors([]tag{{from: ctx.ID(), seq: 0}})
	if nbrs := ctx.Neighbors(); len(nbrs) > 0 {
		ctx.SendTo(nbrs[0], []tag{{from: ctx.ID(), seq: 1}})
	}
}

type combiningRecord struct{ recordProgram }

func (p *combiningRecord) CombineMessages(a, b any) any {
	return append(slices.Clone(a.([]tag)), b.([]tag)...)
}

// expectedArrivals returns the tags v receives in one sending superstep, in
// the engine's delivery order. Without a combiner that is sending worker,
// then send order — workers sweep contiguous ascending slot ranges, so it
// is ascending sender, then sequence, for any worker count. With a
// combiner each source partition's tags arrive as one merged message;
// merged messages arrive in order of their first sender, and each lists
// its senders ascending.
func expectedArrivals(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, combine bool) []tag {
	var plain []tag
	for _, u := range g.Vertices() {
		nbrs := g.Neighbors(u)
		if slices.Contains(nbrs, v) {
			plain = append(plain, tag{from: u, seq: 0})
		}
		if len(nbrs) > 0 && nbrs[0] == v {
			plain = append(plain, tag{from: u, seq: 1})
		}
	}
	if !combine {
		return plain
	}
	var order []partition.ID
	groups := map[partition.ID][]tag{}
	for _, tg := range plain {
		p := asn.Of(tg.from)
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], tg)
	}
	var out []tag
	for _, p := range order {
		out = append(out, groups[p]...)
	}
	return out
}

// TestInboxArrivalOrder pins that every vertex receives its messages in
// delivery order — sending worker, then destination partition, then send
// order; with a combiner, the merged order — for several worker counts.
func TestInboxArrivalOrder(t *testing.T) {
	for _, combine := range []bool{false, true} {
		for _, workers := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("combine=%v/workers=%d", combine, workers), func(t *testing.T) {
				const rounds = 3
				g := gen.BarabasiAlbert(120, 3, 4)
				asn := partition.Hash(g, 3)
				var prog Program = &recordProgram{rounds: rounds}
				if combine {
					prog = &combiningRecord{recordProgram{rounds: rounds}}
				}
				e, err := NewEngine(g, asn, prog, Config{Workers: workers, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, done := e.RunUntilQuiescent(rounds + 3); !done {
					t.Fatal("no quiescence")
				}
				g.ForEachVertex(func(v graph.VertexID) {
					want := expectedArrivals(g, asn, v, combine)
					rec := e.Value(v).(recordValue)
					for step := 1; step <= rounds; step++ {
						if !slices.Equal(rec[step], want) {
							t.Fatalf("vertex %d superstep %d: arrivals %v, want %v", v, step, rec[step], want)
						}
					}
				})
			})
		}
	}
}

// TestInboxRemovedAndReaddedVertexLosesMessages pins that messages in
// flight to a vertex die with it, also when the same batch re-adds the ID:
// the new vertex starts with an empty inbox.
func TestInboxRemovedAndReaddedVertexLosesMessages(t *testing.T) {
	for _, combine := range []bool{false, true} {
		g := gen.BarabasiAlbert(40, 2, 3)
		var prog Program = &recordProgram{rounds: 1}
		if combine {
			prog = &combiningRecord{recordProgram{rounds: 1}}
		}
		e, err := NewEngine(g, partition.Hash(g, 2), prog, Config{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Superstep 0 sends to every neighbour; its barrier removes vertex
		// 5 (messages to it in flight) and re-adds it with an edge.
		e.SetStream(graph.NewSliceStream([]graph.Batch{{
			{Kind: graph.MutRemoveVertex, U: 5},
			{Kind: graph.MutAddEdge, U: 5, V: 0},
		}}))
		e.RunSuperstep()
		if !e.Graph().Has(5) {
			t.Fatal("test precondition: vertex 5 must be live again")
		}
		e.RunSuperstep()
		if got := e.Value(5).(recordValue)[1]; len(got) != 0 {
			t.Fatalf("combine=%v: re-added vertex received %d messages sent to its predecessor: %v", combine, len(got), got)
		}
		if got := e.Value(6).(recordValue)[1]; len(got) == 0 {
			t.Fatalf("combine=%v: test precondition: untouched vertex 6 received nothing", combine)
		}
	}
}

// hashProgram folds every arrival into an order-sensitive hash and keeps
// messages flowing for rounds supersteps, so a replay that loses, reorders
// or duplicates one message changes the values.
type hashProgram struct{ rounds int }

func (p *hashProgram) Init(ctx *VertexContext) any { return uint64(ctx.ID()) }

func (p *hashProgram) Compute(ctx *VertexContext, msgs []any) {
	h := ctx.Value().(uint64)
	for _, m := range msgs {
		h = h*1099511628211 + m.(uint64)
	}
	ctx.SetValue(h)
	if ctx.Superstep() >= p.rounds {
		ctx.VoteToHalt()
		return
	}
	ctx.SendToNeighbors(h ^ uint64(ctx.Superstep()))
}

type combiningHash struct{ hashProgram }

func (p *combiningHash) CombineMessages(a, b any) any { return a.(uint64)*31 + b.(uint64) }

// TestInboxCheckpointReplay pins that a checkpoint taken with messages in
// flight, rolled back to by a scheduled failure, replays to the same
// values and per-superstep stats as a failure-free run.
func TestInboxCheckpointReplay(t *testing.T) {
	for _, combine := range []bool{false, true} {
		run := func(failAt int) (*Engine, []SuperstepStats) {
			g := gen.BarabasiAlbert(150, 3, 8)
			var prog Program = &hashProgram{rounds: 12}
			if combine {
				prog = &combiningHash{hashProgram{rounds: 12}}
			}
			e, err := NewEngine(g, partition.Hash(g, 3), prog, Config{Workers: 2, Seed: 1, CheckpointEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			if failAt >= 0 {
				e.ScheduleFailure(failAt)
			}
			if _, done := e.RunUntilQuiescent(40); !done {
				t.Fatal("no quiescence")
			}
			return e, e.History()
		}
		ref, refHist := run(-1)
		got, hist := run(6) // rolls back to the checkpoint taken at superstep 4
		recovered := slices.IndexFunc(hist, func(s SuperstepStats) bool { return s.Recovered })
		if recovered != 6 {
			t.Fatalf("combine=%v: recovery at history index %d, want 6", combine, recovered)
		}
		if hist[recovered+1].Superstep != 4 {
			t.Fatalf("combine=%v: replay resumed at superstep %d, want 4", combine, hist[recovered+1].Superstep)
		}
		replay := hist[recovered+1:]
		if !slices.Equal(replay, refHist[4:]) {
			t.Fatalf("combine=%v: replayed stats differ:\n%+v\n%+v", combine, replay, refHist[4:])
		}
		ref.Graph().ForEachVertex(func(v graph.VertexID) {
			if got.Value(v) != ref.Value(v) {
				t.Fatalf("combine=%v: vertex %d value %v after replay, want %v", combine, v, got.Value(v), ref.Value(v))
			}
		})
	}
}

// floodForever sends one pre-boxed message to every neighbour each
// superstep and never halts: a steady message load with no allocation of
// its own.
type floodForever struct{}

var floodMsg any = struct{}{}

func (floodForever) Init(ctx *VertexContext) any { return nil }

func (floodForever) Compute(ctx *VertexContext, msgs []any) {
	ctx.SendToNeighbors(floodMsg)
}

// TestInboxSteadySuperstepAllocs pins that a steady superstep's
// allocations do not grow with the number of messages: the flat inbox and
// the outboxes are reused, so a graph with ten times the edges allocates
// no more per superstep.
func TestInboxSteadySuperstepAllocs(t *testing.T) {
	allocs := func(n int) (float64, int) {
		g := gen.BarabasiAlbert(n, 3, 2)
		e, err := NewEngine(g, partition.Hash(g, 4), floodForever{}, Config{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.RunSupersteps(3) // reach the buffers' high-water mark
		a := testing.AllocsPerRun(20, func() { e.RunSuperstep() })
		return a, e.History()[len(e.History())-1].LocalMsgs + e.History()[len(e.History())-1].RemoteMsgs
	}
	small, smallMsgs := allocs(300)
	large, largeMsgs := allocs(3000)
	if largeMsgs < 9*smallMsgs {
		t.Fatalf("test precondition: %d messages per superstep vs %d", largeMsgs, smallMsgs)
	}
	if large > small+1 {
		t.Fatalf("allocations grow with messages: %.1f per superstep at %d messages, %.1f at %d",
			small, smallMsgs, large, largeMsgs)
	}
	if small > 16 {
		t.Fatalf("%.1f allocations per steady superstep, want a small constant", small)
	}
}

// TestInboxReleasedAtQuiescence pins that an idle engine holds no message
// memory: once a barrier delivers nothing, the inbox buffer, the combiner
// scratch and the worker outboxes are all released.
func TestInboxReleasedAtQuiescence(t *testing.T) {
	for _, combine := range []bool{false, true} {
		g := gen.BarabasiAlbert(300, 3, 6)
		var prog Program = &hashProgram{rounds: 4}
		if combine {
			prog = &combiningHash{hashProgram{rounds: 4}}
		}
		e, err := NewEngine(g, partition.Hash(g, 3), prog, Config{Workers: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.RunSupersteps(3)
		if cap(e.inbox) == 0 {
			t.Fatalf("combine=%v: test precondition: no inbox buffer mid-run", combine)
		}
		if _, done := e.RunUntilQuiescent(20); !done {
			t.Fatal("no quiescence")
		}
		if e.inbox != nil || e.mergedBuf != nil {
			t.Fatalf("combine=%v: quiescent engine holds an inbox of cap %d and a merge buffer of cap %d",
				combine, cap(e.inbox), cap(e.mergedBuf))
		}
		for _, w := range e.workers {
			for p, box := range w.outbox {
				if box != nil {
					t.Fatalf("combine=%v: worker %d keeps an outbox of cap %d for partition %d", combine, w.id, cap(box), p)
				}
			}
		}
	}
}

package server

import (
	"os"
	"strconv"
	"testing"
	"time"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
)

// Flash-crowd scenario: the read hotset of a converged daemon jumps to
// a new region of the graph (a post goes viral, a celebrity joins a
// thread), and the workload term must pull the co-read neighbourhood
// onto fewer partitions than the topology-only objective left it on.
// Two identical daemons absorb the same stream and the same read
// traffic; only -workload-weight differs. After each hotset shift the
// weighted daemon must serve ≥20% fewer cross-partition reads per
// batch than the topology-only baseline.
//
// Scale: 100k vertices in tier-1; XDGP_FLASHCROWD_SCALE overrides for
// the nightly 1M run.

// flashCrowdScale resolves the vertex count.
func flashCrowdScale(t *testing.T) int {
	if v := os.Getenv("XDGP_FLASHCROWD_SCALE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1000 {
			t.Fatalf("XDGP_FLASHCROWD_SCALE %q invalid", v)
		}
		return n
	}
	return 100_000
}

// readBall collects the read hotset around a crowd centre: a BFS ball
// of up to max vertices — the post plus the commenters two hops out.
func readBall(g *graph.Graph, center graph.VertexID, max int) []graph.VertexID {
	ids := []graph.VertexID{center}
	seen := map[graph.VertexID]bool{center: true}
	for i := 0; i < len(ids) && len(ids) < max; i++ {
		g.ForEachNeighbor(ids[i], func(w graph.VertexID) {
			if !seen[w] && len(ids) < max {
				seen[w] = true
				ids = append(ids, w)
			}
		})
	}
	return ids
}

// crossReads counts the batch's reads that leave its modal partition —
// the per-batch fan-out a scatter-gather client pays.
func crossReads(resp readplane.BatchResponse) int {
	counts := make(map[int64]int)
	for _, p := range resp.Placements {
		counts[p.Partition]++
	}
	modal := 0
	for _, c := range counts {
		if c > modal {
			modal = c
		}
	}
	return len(resp.Placements) - modal
}

func TestFlashCrowdWorkloadAdaptation(t *testing.T) {
	n := flashCrowdScale(t)
	g := gen.BarabasiAlbert(n, 2, 5)
	stream := make(graph.Batch, 0, 2*n)
	g.ForEachEdge(func(u, v graph.VertexID) {
		stream = append(stream, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
	})

	mk := func(workloadWeight float64) *Server {
		cfg := DefaultConfig(8, 7)
		cfg.TickEvery = 100 * time.Millisecond // decay reference only: ticks are driven manually
		cfg.HeatHalfLife = 400 * time.Millisecond
		cfg.HeatSample = 1
		cfg.WorkloadWeight = workloadWeight
		cfg.MaxPending = -1 // the whole stream arrives as one enqueue
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Enqueue(stream); !ok {
			t.Fatal("enqueue rejected the stream")
		}
		for i := 0; i < 500 && !s.Stats().Converged; i++ {
			s.TickNow()
		}
		if !s.Stats().Converged {
			t.Fatalf("daemon (weight %g) did not converge on the base graph", workloadWeight)
		}
		return s
	}
	base, adaptive := mk(0), mk(8)

	// Before any reads the weighted daemon has no heat, so the two must
	// have converged byte-identically — the passivity contract, checked
	// here end-to-end through the serving stack.
	ta, tb := base.part.Assignment().Table(), adaptive.part.Assignment().Table()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("slot %d diverged before any reads: %d vs %d", i, ta[i], tb[i])
		}
	}

	const (
		ballSize     = 64
		adaptTicks   = 30 // ticks each crowd lasts before we measure
		readsPerTick = 4  // hotset batches per tick
	)
	centers := []graph.VertexID{graph.VertexID(n / 4), graph.VertexID(n / 2), graph.VertexID(3 * n / 4)}
	for shift, center := range centers {
		ids := readBall(g, center, ballSize)
		for tick := 0; tick < adaptTicks; tick++ {
			for r := 0; r < readsPerTick; r++ {
				base.BatchLookup(ids)
				adaptive.BatchLookup(ids)
			}
			base.TickNow()
			adaptive.TickNow()
		}
		crossBase := crossReads(base.BatchLookup(ids))
		crossAdaptive := crossReads(adaptive.BatchLookup(ids))
		t.Logf("shift %d (centre %d, %d reads/batch): cross-partition reads %d (weight 0) vs %d (weight 8)",
			shift, center, len(ids), crossBase, crossAdaptive)
		if crossBase == 0 {
			t.Fatalf("shift %d: baseline already fully co-located — hotset exercised nothing", shift)
		}
		if limit := crossBase * 8 / 10; crossAdaptive > limit {
			t.Errorf("shift %d: cross-partition reads %d with the workload term, want ≤ %d (≥20%% below the %d baseline)",
				shift, crossAdaptive, limit, crossBase)
		}
	}

	// The workload term trades read locality only within the capacity
	// envelope: the invariant must survive the crowd migrations.
	if !partition.WithinCapacities(asnOf(adaptive), capsOf(adaptive)) {
		t.Fatal("capacity invariant violated after flash-crowd adaptation")
	}
}

package server

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"xdgp/internal/graph"
)

// Serving-plane benchmarks: placement read throughput WHILE the
// adaptation loop is actively absorbing churn — the workload the routing
// snapshot exists for: reads never take the state lock, so the ticks'
// write-lock windows must not show in their latency.
//
//	go test -run=NONE -bench PlacementUnderAdaptation ./internal/server

// startChurn keeps the adaptation loop busy: every iteration enqueues a
// rewire batch and runs a synchronous tick (ApplyBatch + heuristic
// steps, all under the state write lock). Returns a stop func.
func startChurn(s *Server, n int) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := make(graph.Batch, 0, 200)
			for j := 0; j < 100; j++ {
				u, v := rng.Intn(n), rng.Intn(n)
				b = append(b,
					graph.Mutation{Kind: graph.MutRemoveEdge, U: graph.VertexID(u), V: graph.VertexID((u + 1) % n)},
					graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(u), V: graph.VertexID(v)},
				)
			}
			s.Enqueue(b)
			s.TickNow()
		}
	}()
	return func() { close(stop); wg.Wait() }
}

func newBenchServer(b *testing.B, n int) *Server {
	b.Helper()
	cfg := DefaultConfig(8, 1)
	cfg.TickEvery = time.Hour // churn goroutine ticks explicitly
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := make(graph.Batch, 0, 2*n)
	for i := 0; i < n; i++ {
		batch = append(batch,
			graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(i), V: graph.VertexID((i + 1) % n)},
			graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(i), V: graph.VertexID((i + 17) % n)},
		)
	}
	s.Enqueue(batch)
	for !s.Stats().Converged {
		s.TickNow()
	}
	return s
}

// BenchmarkPlacementUnderAdaptation measures single-vertex reads against
// a daemon whose tick loop is continuously migrating.
func BenchmarkPlacementUnderAdaptation(b *testing.B) {
	const n = 10000
	b.Run("snapshot", func(b *testing.B) {
		s := newBenchServer(b, n)
		defer startChurn(s, n)()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := graph.VertexID(0)
			for pb.Next() {
				s.Placement(v)
				v = (v + 37) % n
			}
		})
	})
}

// BenchmarkPlacementHeat isolates what read-heat sampling adds to one
// placement lookup: the same converged daemon, no churn, heat recording
// off (one atomic load to see it's off) vs on (one counter add, and
// every sampleth read stores into the shard ring). Uncontended and
// steady, so unlike the adaptation benchmarks above this pair IS gated
// by cmd/benchgate — the heat table must not slow the serving plane.
//
//	go test -run=NONE -bench PlacementHeat ./internal/server
func BenchmarkPlacementHeat(b *testing.B) {
	const n = 10000
	run := func(b *testing.B, record bool) {
		s := newBenchServer(b, n)
		s.heatTable.SetRecording(record)
		b.ResetTimer()
		v := graph.VertexID(0)
		for i := 0; i < b.N; i++ {
			s.Placement(v)
			v = (v + 37) % n
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkBatchLookupUnderAdaptation measures the batch read path
// (1000 IDs per call, one snapshot per call) under the same active
// churn; ns/op is per batch, not per vertex.
func BenchmarkBatchLookupUnderAdaptation(b *testing.B) {
	const n = 10000
	s := newBenchServer(b, n)
	defer startChurn(s, n)()
	ids := make([]graph.VertexID, 1000)
	for i := range ids {
		ids[i] = graph.VertexID((i * 97) % n)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.BatchLookup(ids)
		}
	})
}

package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"
)

// This file renders GET /metrics in the Prometheus text exposition
// format, hand-written so the daemon stays dependency-free. Everything
// exported here is O(1) to read — counters are atomics, gauges come from
// size fields — keeping the scrape path cheap; cut statistics (O(|E|))
// are deliberately /v1/stats-only.

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("apartd_mutations_ingested_total", "Mutations accepted over HTTP or the binary plane.", s.ingested.Load())
	counter("apartd_ingest_rejected_total", "Mutations refused by the MaxPending backpressure cap (HTTP 429 / binary NAK).", s.rejected.Load())
	counter("apartd_mutations_applied_total", "Mutations that changed the graph.", s.applied.Load())
	counter("apartd_ticks_total", "Coalescing ticks processed.", s.ticks.Load())
	counter("apartd_iterations_total", "Heuristic iterations executed.", s.iterations.Load())
	counter("apartd_examined_total", "Per-vertex migration decisions evaluated (the active-set scheduler's denominator).", s.examined.Load())
	counter("apartd_migrations_total", "Granted vertex migrations.", s.migrations.Load())
	counter("apartd_checkpoints_total", "Snapshots written.", s.checkpoints.Load())
	counter("apartd_checkpoint_failures_total", "Periodic/drain checkpoint attempts that failed.", s.ckptFailures.Load())

	// Serving plane: epoch/age come from one atomic snapshot load, ring
	// occupancy from the hub's own mutex — nothing here touches the
	// adaptation state lock.
	snap := s.routing.Load()
	counter("apartd_routing_publishes_total", "Routing snapshots published (epochs minus the bootstrap).", s.publishes.Load())
	gauge("apartd_routing_epoch", "Epoch of the currently served routing snapshot.", float64(snap.Epoch))
	gauge("apartd_routing_snapshot_age_seconds", "Age of the current routing snapshot (high while adaptation is idle — pair with apartd_ingest_pending).",
		time.Since(time.Unix(0, snap.CreatedUnixNano)).Seconds())
	gauge("apartd_routing_vertices", "Vertices placed in the current routing snapshot.", float64(snap.Table.Assigned()))
	retained, evicted := s.hub.retained()
	gauge("apartd_watch_subscribers", "Currently connected /v1/watch streams.", float64(s.watchers.Load()))
	gauge("apartd_watch_ring_retained", "Epoch diffs currently retained for watch resume.", float64(retained))
	counter("apartd_watch_events_total", "Diff lines written across all watch streams.", s.watchEvents.Load())
	counter("apartd_watch_resyncs_total", "Resync events sent to watchers that fell behind the diff ring.", s.watchResyncs.Load())
	counter("apartd_watch_dropped_total", "Watch subscribers dropped on a write-deadline miss (dead or stalled consumer connection).", s.watchDropped.Load())
	counter("apartd_watch_evicted_total", "Epoch diffs dropped off the retention ring (watch lag ceiling).", evicted)
	counter("apartd_batch_requests_total", "POST /v1/placements requests served.", s.batchRequests.Load())
	counter("apartd_batch_lookups_total", "Vertex lookups served by batch requests.", s.batchLookups.Load())

	// Workload-heat plane: all O(1) mirrors of the last tick fold.
	heatRec := 0.0
	if s.heatTable.Recording() {
		heatRec = 1
	}
	gauge("apartd_heat_recording", "1 when serving-plane reads are being sampled into the heat table.", heatRec)
	gauge("apartd_heat_workload_weight", "Strength of the workload term in the migration objective (0 = topology-only).", s.cfg.WorkloadWeight)
	counter("apartd_heat_reads_total", "Serving-plane reads counted by the heat table (exact, pre-sampling).", s.heatTable.TotalReads())
	counter("apartd_heat_samples_total", "Sampled reads folded into the partitioner at tick boundaries.", s.heatSamples.Load())
	counter("apartd_heat_folds_total", "Heat folds executed (tick boundaries, plus checkpoint pre-captures).", s.heatFolds.Load())
	gauge("apartd_heat_hot_vertices", "Vertices with non-zero decayed heat after the last fold.", float64(s.heatHot.Load()))
	gauge("apartd_heat_max", "Maximum decayed per-vertex heat after the last fold.", math.Float64frombits(s.heatMaxBits.Load()))

	// Cluster plane: emitted only in cluster mode. All O(1) atomics; the
	// state-hash gauge is the low 32 bits of the assignment fingerprint
	// (float64 gauges cannot carry 64 bits exactly) — enough for an
	// operator to diff across shards, with the full hash on /v1/stats.
	if s.cfg.Exchange != nil {
		gauge("apartd_cluster_shard", "This replica's shard index.", float64(s.cfg.Exchange.Shard()))
		gauge("apartd_cluster_shards", "Fixed cluster size.", float64(s.cfg.Exchange.Shards()))
		gauge("apartd_cluster_healthy", "1 while cluster mode is healthy, 0 once poisoned by divergence or a transport failure.", s.clusterHealthGauge())
		counter("apartd_cluster_rounds_total", "Exchange rounds completed (batch and step rounds).", s.clusterRounds.Load())
		counter("apartd_cluster_replayed_rounds_total", "Rounds re-executed from peer journals after a restart.", s.clusterReplayed.Load())
		gauge("apartd_cluster_round_wait_seconds_total", "Cumulative time spent blocked on round barriers (counter semantics; ratio to wall time ≈ barrier overhead).",
			time.Duration(s.clusterWaitNs.Load()).Seconds())
		gauge("apartd_cluster_state_hash_low32", "Low 32 bits of the last batch round's assignment fingerprint; must match across shards.",
			float64(s.clusterHash.Load()&0xffffffff))
	}

	pending, age := s.PendingMutations()
	gauge("apartd_ingest_pending", "Mutations waiting for the next tick.", float64(pending))
	gauge("apartd_ingest_lag_seconds", "Age of the oldest pending mutation.", age.Seconds())
	gauge("apartd_ingest_capacity", "MaxPending queue cap the backpressure NAK/429 path enforces.", float64(s.maxPending))
	gauge("apartd_ingest_shards", "Independent ingest queues.", float64(len(s.shards)))
	gauge("apartd_binary_conns", "Currently connected binary-plane ingest connections.", float64(s.binaryConns.Load()))
	counter("apartd_binary_frames_total", "Batch frames accepted on the binary plane.", s.binaryFrames.Load())
	gauge("apartd_last_batch_size", "Mutations coalesced into the most recent tick.", float64(s.lastBatch.Load()))
	gauge("apartd_last_checkpoint_timestamp_seconds", "Unix time of the most recent checkpoint (0 when none).", float64(s.lastCkptUnx.Load()))

	s.mu.RLock()
	g := s.part.Graph()
	vertices, edges := g.NumVertices(), g.NumEdges()
	mem := g.MemoryStats()
	overlayMass := g.OverlayMass()
	dirty := s.part.DirtyCount()
	iteration := s.part.Iteration()
	converged := s.part.Converged()
	sizes := s.part.Assignment().Sizes()
	s.mu.RUnlock()

	gauge("apartd_vertices", "Live vertices.", float64(vertices))
	gauge("apartd_edges", "Live edges.", float64(edges))
	gauge("apartd_dirty_vertices", "Active-set frontier size (0 when full-sweep or idle).", float64(dirty))
	gauge("apartd_iteration", "Heuristic iteration counter.", float64(iteration))
	gauge("apartd_graph_bytes", "Estimated resident bytes of the adjacency storage (arena + spans + overlay).", float64(mem.Bytes))
	gauge("apartd_graph_overlay_entries", "Adjacency entries pending compaction (overlay adds + arena garbage).", float64(overlayMass))
	counter("apartd_graph_compactions_total", "Adjacency arena rebuilds (automatic and between-tick).", mem.Compactions)
	boolV := 0.0
	if converged {
		boolV = 1
	}
	gauge("apartd_converged", "1 when the convergence window is satisfied.", boolV)

	fmt.Fprintf(&b, "# HELP apartd_partition_size Vertices per partition.\n# TYPE apartd_partition_size gauge\n")
	for p, n := range sizes {
		fmt.Fprintf(&b, "apartd_partition_size{partition=%q} %d\n", fmt.Sprint(p), n)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

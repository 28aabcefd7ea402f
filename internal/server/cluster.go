package server

import (
	"fmt"
	"time"

	"xdgp/internal/cluster"
	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/snapshot"
)

// This file is the daemon's cluster mode: N apartd processes, each
// deciding migrations for its contiguous slice of the vertex table,
// cooperating through the round-barrier Exchange (internal/cluster) to
// compute byte-identical global assignments on every node.
//
// The design is a deterministic replicated state machine, not a
// partitioned store: every shard holds the full graph and the full
// assignment, so every shard serves any read locally, and losing a
// shard loses no data — only its share of decide throughput. Each tick
// costs one batch round (merging every shard's drained mutations, in
// shard order) plus one step round per heuristic iteration (merging
// every shard's core.ShardDecision). All rounds are barriers; replicas
// that restart behind the cluster replay journaled rounds through the
// exact same code path, so the round counter in a checkpoint is all the
// resume state a shard needs beyond the snapshot itself.
//
// Divergence is a bug, never a tolerated state: every batch round
// carries an FNV-1a hash of the sender's assignment, and any mismatch
// poisons the local cluster state (clusterErr) rather than letting two
// hash-disagreeing replicas keep answering reads differently.

// restoreClusterIdentity checks a snapshot's cluster section against
// the restoring configuration, for what the journal replay needs. A
// cluster shard resumes only from a clustered checkpoint, since the
// replay starts at its round watermark, and only as the same shard of
// the same geometry: the watermark indexes that cluster's journal, and
// the checkpoint's shard-local parts (ingest counters, read heat) belong
// to that slot. The replicated state itself is the same on every shard
// and carries no generator state, so a single process may resume from
// any shard's checkpoint.
func restoreClusterIdentity(cfg *Config, snap *snapshot.Snapshot) error {
	ci := snap.Cluster
	if cfg.Exchange == nil {
		return nil
	}
	if ci == nil {
		return fmt.Errorf("server: snapshot carries no cluster identity; cluster mode resumes only from cluster-mode checkpoints")
	}
	if int(ci.ShardID) != cfg.ClusterShard || int(ci.NumShards) != cfg.ClusterShards {
		return fmt.Errorf("server: snapshot identity is shard %d of %d, configured as shard %d of %d",
			ci.ShardID, ci.NumShards, cfg.ClusterShard, cfg.ClusterShards)
	}
	return nil
}

// clusterFault wraps the first error that poisoned cluster mode, so an
// atomic pointer can publish it to ticks, stats and handlers at once.
type clusterFault struct{ err error }

// failCluster records the first cluster-mode failure. Later ticks
// become no-ops and /v1/tick, /v1/stats and /metrics surface the error;
// read serving continues from the last published routing snapshot.
func (s *Server) failCluster(err error) {
	s.clusterErr.CompareAndSwap(nil, &clusterFault{err: err})
}

// ClusterError returns the error that poisoned cluster mode, or nil
// while the cluster is healthy (always nil in single-process mode).
func (s *Server) ClusterError() error {
	if f := s.clusterErr.Load(); f != nil {
		return f.err
	}
	return nil
}

// assignmentHashLocked fingerprints the current assignment (FNV-1a over
// the slot-indexed table). Replicas of the cluster state machine must
// agree on it at every batch round. Caller holds mu (read suffices).
func (s *Server) assignmentHashLocked() uint64 {
	asn := s.part.Assignment()
	slots := asn.Slots()
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	mix(uint32(slots))
	for i := 0; i < slots; i++ {
		mix(uint32(asn.Of(graph.VertexID(i))))
	}
	return h
}

// ownerShard returns the shard whose contiguous decide range covers v in
// the current routing snapshot. Ownership is about who *decides* v's
// migrations — every shard serves reads for every vertex — so the owner
// is where an operator looks for the heuristic activity behind a
// placement.
func (s *Server) ownerShard(v graph.VertexID) int {
	n := s.cfg.ClusterShards
	slots := s.routing.Load().Table.Slots()
	per := (slots + n - 1) / n
	if per == 0 || int(v) >= slots {
		return 0
	}
	return int(v) / per
}

// tickCluster is TickNow's body in cluster mode: one batch round, then
// one step round per heuristic iteration until convergence or the step
// budget. Caller holds tickMu. When the next round number is at or below
// the Exchange's replay watermark the tick re-executes a journaled
// round: the local ingest queue is left untouched (its mutations belong
// to post-replay ticks), the decide phase still runs (its payload is
// what the pre-crash process sent), and the journaled payloads — not the
// freshly computed ones — are what every replica applies.
func (s *Server) tickCluster() TickResult {
	var res TickResult
	ex := s.cfg.Exchange
	if s.ClusterError() != nil {
		return res
	}

	round := s.clusterRounds.Load() + 1
	replaying := round <= ex.Completed()
	var batch graph.Batch
	if !replaying {
		batch = s.drainPending()
	} else {
		s.clusterReplayed.Add(1)
	}

	s.mu.RLock()
	hash := s.assignmentHashLocked()
	s.mu.RUnlock()
	s.clusterHash.Store(hash)
	pending, _ := s.PendingMutations()

	payload, err := cluster.AppendBatchPayload(nil, cluster.BatchPayload{
		StateHash:   hash,
		MorePending: pending > 0,
		Batch:       batch,
	})
	if err != nil {
		s.failCluster(fmt.Errorf("encode batch round %d: %w", round, err))
		return res
	}
	returned, err := s.runRound(round, payload)
	if err != nil {
		s.failCluster(fmt.Errorf("batch round %d: %w", round, err))
		return res
	}

	var merged graph.Batch
	morePending := false
	for i, enc := range returned {
		p, err := cluster.DecodeBatchPayload(enc)
		if err != nil {
			s.failCluster(fmt.Errorf("batch round %d: shard %d payload: %w", round, i, err))
			return res
		}
		if p.StateHash != hash {
			s.failCluster(fmt.Errorf(
				"cluster diverged at round %d: shard %d assignment hash %016x, local %016x",
				round, i, p.StateHash, hash))
			return res
		}
		morePending = morePending || p.MorePending
		merged = append(merged, p.Batch...)
	}

	res.BatchSize = len(merged) // the global tick batch, all shards merged
	res.MorePending = morePending
	s.lastBatch.Store(int64(len(merged)))

	s.mu.Lock()
	if len(merged) > 0 {
		res.Applied = s.part.ApplyBatch(merged)
		s.applied.Add(uint64(res.Applied))
		s.publishRouting()
	}
	// Heat stays shard-local observability in cluster mode (the
	// workload objective is rejected at validate time), so folding here
	// never touches what the replicated state machine computes.
	s.foldHeatLocked()
	converged := s.part.Converged()
	s.mu.Unlock()

	for !converged && res.Steps < s.cfg.MaxStepsPerTick {
		round = s.clusterRounds.Load() + 1
		if round <= ex.Completed() {
			s.clusterReplayed.Add(1)
		}
		s.mu.Lock()
		d, err := s.part.StepClusterDecide(s.cfg.ClusterShard, s.cfg.ClusterShards)
		s.mu.Unlock()
		if err != nil {
			s.failCluster(fmt.Errorf("step round %d decide: %w", round, err))
			return res
		}
		enc, err := cluster.AppendStepPayload(nil, d)
		if err != nil {
			s.failCluster(fmt.Errorf("encode step round %d: %w", round, err))
			return res
		}
		returned, err := s.runRound(round, enc)
		if err != nil {
			s.failCluster(fmt.Errorf("step round %d: %w", round, err))
			return res
		}
		decisions := make([]*core.ShardDecision, len(returned))
		for i, e := range returned {
			if decisions[i], err = cluster.DecodeStepPayload(e); err != nil {
				s.failCluster(fmt.Errorf("step round %d: shard %d payload: %w", round, i, err))
				return res
			}
		}
		s.mu.Lock()
		st, err := s.part.StepClusterApply(decisions)
		if err == nil {
			converged = s.part.Converged()
		}
		s.mu.Unlock()
		if err != nil {
			s.failCluster(fmt.Errorf("step round %d apply: %w", round, err))
			return res
		}
		s.iterations.Add(1)
		s.migrations.Add(uint64(st.Migrations))
		s.examined.Add(uint64(st.Examined))
		res.Steps++
		res.Migrations += st.Migrations
		res.Examined += st.Examined
	}
	res.Converged = converged

	s.mu.Lock()
	s.publishRouting()
	if s.part.Graph().MaybeCompact() {
		res.Compacted = true
	}
	s.mu.Unlock()

	tick := s.ticks.Add(1)
	if s.cfg.CheckpointEvery > 0 && tick%uint64(s.cfg.CheckpointEvery) == 0 {
		if _, err := s.checkpoint(s.cfg.CheckpointPath); err == nil {
			res.Checkpoint = true
		} else {
			s.ckptFailures.Add(1)
		}
	}
	return res
}

// runRound submits one round to the Exchange, accounting barrier wait
// time and advancing the persistent round counter on success.
func (s *Server) runRound(round uint64, payload []byte) ([][]byte, error) {
	start := time.Now()
	returned, err := s.cfg.Exchange.Round(round, payload)
	s.clusterWaitNs.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	s.clusterRounds.Store(round)
	return returned, nil
}

// ClusterStats is the cluster block of /v1/stats, present only in
// cluster mode.
type ClusterStats struct {
	// Shard and Shards identify this replica in the fixed geometry.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// OwnedLo and OwnedHi are the half-open slot range this shard
	// decides migrations for (reads are served for every vertex).
	OwnedLo int `json:"owned_lo"`
	OwnedHi int `json:"owned_hi"`
	// Rounds is the highest exchange round this replica has completed;
	// Replayed counts the rounds it re-executed from peers' journals
	// after a restart.
	Rounds   uint64 `json:"rounds"`
	Replayed uint64 `json:"replayed_rounds"`
	// StateHash is the assignment fingerprint sent with the last batch
	// round — equal on every healthy shard.
	StateHash string `json:"state_hash"`
	// Error is the failure that poisoned cluster mode, empty while
	// healthy.
	Error string `json:"error,omitempty"`
}

// clusterStats assembles the cluster block, or nil in single-process
// mode.
func (s *Server) clusterStats() *ClusterStats {
	if s.cfg.Exchange == nil {
		return nil
	}
	s.mu.RLock()
	slots := s.part.Graph().NumSlots()
	s.mu.RUnlock()
	lo, hi := graph.ShardRange(s.cfg.ClusterShard, s.cfg.ClusterShards, slots)
	cs := &ClusterStats{
		Shard:     s.cfg.ClusterShard,
		Shards:    s.cfg.ClusterShards,
		OwnedLo:   lo,
		OwnedHi:   hi,
		Rounds:    s.clusterRounds.Load(),
		Replayed:  s.clusterReplayed.Load(),
		StateHash: fmt.Sprintf("%016x", s.clusterHash.Load()),
	}
	if err := s.ClusterError(); err != nil {
		cs.Error = err.Error()
	}
	return cs
}

// clusterHealthGauge is 1 while cluster mode is healthy, 0 once
// poisoned (single-process mode never emits it).
func (s *Server) clusterHealthGauge() float64 {
	if s.ClusterError() != nil {
		return 0
	}
	return 1
}

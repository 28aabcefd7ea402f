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
// shard loses no data — only its share of decide throughput. A tick
// runs TickNow's one body; cluster mode supplies only its batch (one
// batch round merging every shard's drained mutations, in shard order)
// and each iteration (one step round merging every shard's
// core.ShardDecision). All rounds are barriers; replicas that restart
// behind the cluster replay journaled rounds through the same code, so
// the round counter in a checkpoint is all the resume state a shard
// needs beyond the snapshot itself.
//
// Divergence is a bug, never a tolerated state: every batch round
// carries an FNV-1a hash of the sender's assignment, and any mismatch
// poisons the local cluster state (clusterErr) rather than letting two
// hash-disagreeing replicas keep answering reads differently.

// restoreClusterIdentity checks a snapshot's cluster section against
// the restoring Exchange. A cluster shard resumes only from a clustered
// checkpoint (the replay starts at its round watermark) of the same
// shard and geometry: the watermark indexes that cluster's journal, and
// the shard-local parts (ingest counters, read heat) belong to that
// slot. The replicated state carries no generator state, so a single
// process may resume from any shard's checkpoint.
func restoreClusterIdentity(cfg *Config, snap *snapshot.Snapshot) error {
	ci := snap.Cluster
	if cfg.Exchange == nil {
		return nil
	}
	if ci == nil {
		return fmt.Errorf("server: snapshot carries no cluster identity; cluster mode resumes only from cluster-mode checkpoints")
	}
	if shard, n := cfg.Exchange.Shard(), cfg.Exchange.Shards(); int(ci.ShardID) != shard || int(ci.NumShards) != n {
		return fmt.Errorf("server: snapshot identity is shard %d of %d, configured as shard %d of %d",
			ci.ShardID, ci.NumShards, shard, n)
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
// a routing snapshot of the given slot count: the read plane's Owner in
// cluster mode. Ownership is about who *decides* v's migrations — every
// shard serves reads for every vertex — so the owner is where an
// operator looks for the heuristic activity behind a placement.
func (s *Server) ownerShard(v graph.VertexID, slots int) int {
	n := s.cfg.Exchange.Shards()
	per := (slots + n - 1) / n
	if per == 0 || int(v) >= slots {
		return 0
	}
	return int(v) / per
}

// clusterBatch is the batch seam in cluster mode: one batch round that
// checks every shard's assignment hash and merges their drained queues
// in shard order. A round at or below the Exchange's replay watermark
// re-executes a journaled round: the local queue is left for post-replay
// ticks, and the journaled payloads are what every replica applies.
func (s *Server) clusterBatch() (graph.Batch, bool, error) {
	round := s.clusterRounds.Load() + 1
	var batch graph.Batch
	if round > s.cfg.Exchange.Completed() {
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
		return nil, false, fmt.Errorf("encode batch round %d: %w", round, err)
	}
	returned, err := s.runRound(round, payload)
	if err != nil {
		return nil, false, fmt.Errorf("batch round %d: %w", round, err)
	}

	var merged graph.Batch
	morePending := false
	for i, enc := range returned {
		p, err := cluster.DecodeBatchPayload(enc)
		if err != nil {
			return nil, false, fmt.Errorf("batch round %d: shard %d payload: %w", round, i, err)
		}
		if p.StateHash != hash {
			return nil, false, fmt.Errorf(
				"cluster diverged at round %d: shard %d assignment hash %016x, local %016x",
				round, i, p.StateHash, hash)
		}
		morePending = morePending || p.MorePending
		merged = append(merged, p.Batch...)
	}
	return merged, morePending, nil
}

// clusterStep is the step seam in cluster mode: decide this shard's
// slice, exchange it in one step round, and apply every shard's
// decisions in shard order (the journaled ones during replay).
func (s *Server) clusterStep() (core.IterationStats, bool, error) {
	ex := s.cfg.Exchange
	round := s.clusterRounds.Load() + 1
	if round <= ex.Completed() {
		s.clusterReplayed.Add(1)
	}
	s.mu.Lock()
	d, err := s.part.StepClusterDecide(ex.Shard(), ex.Shards())
	s.mu.Unlock()
	if err != nil {
		return core.IterationStats{}, false, fmt.Errorf("step round %d decide: %w", round, err)
	}
	enc, err := cluster.AppendStepPayload(nil, d)
	if err != nil {
		return core.IterationStats{}, false, fmt.Errorf("encode step round %d: %w", round, err)
	}
	returned, err := s.runRound(round, enc)
	if err != nil {
		return core.IterationStats{}, false, fmt.Errorf("step round %d: %w", round, err)
	}
	decisions := make([]*core.ShardDecision, len(returned))
	for i, e := range returned {
		if decisions[i], err = cluster.DecodeStepPayload(e); err != nil {
			return core.IterationStats{}, false, fmt.Errorf("step round %d: shard %d payload: %w", round, i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.part.StepClusterApply(decisions)
	if err != nil {
		return core.IterationStats{}, false, fmt.Errorf("step round %d apply: %w", round, err)
	}
	return st, s.part.Converged(), nil
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
	shard, n := s.cfg.Exchange.Shard(), s.cfg.Exchange.Shards()
	lo, hi := graph.ShardRange(shard, n, slots)
	cs := &ClusterStats{
		Shard:     shard,
		Shards:    n,
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

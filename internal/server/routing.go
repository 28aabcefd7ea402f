package server

import (
	"slices"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file is the serving plane's write side: deriving epoch-numbered
// routing snapshots from the partitioner and swapping them in through an
// atomic pointer. Read endpoints (single, batch, watch) consume only the
// published snapshot and never touch the adaptation state lock — see
// docs/API.md for the consistency contract this buys.

// RoutingSnapshot is one immutable, epoch-numbered routing table: the
// compact vertex→partition map the read endpoints serve from. Snapshots
// are published by the tick loop (after each applied mutation batch and
// after each tick's adaptation steps) and retired by pointer swap; a
// goroutine that loaded one may keep reading it for as long as it likes —
// nothing is ever written to a published snapshot. All fields are
// read-only after publication.
type RoutingSnapshot struct {
	// Epoch numbers snapshots 1,2,3,… within one daemon process. Epochs
	// are serving-plane state, not partitioner state: they are NOT
	// persisted in checkpoints, so a restarted daemon starts again at 1
	// and watch consumers must resync (docs/OPERATIONS.md).
	Epoch uint64
	// Table answers vertex→partition lookups without synchronization.
	Table *partition.Frozen
	// CreatedUnixNano timestamps publication (the /metrics snapshot-age
	// gauge is now − this).
	CreatedUnixNano int64
}

// PlacementChange is one vertex's placement transition within an epoch
// diff. From/To use -1 (partition.None) for "not placed": From=-1 means
// the vertex was added, To=-1 means it was removed, anything else is a
// migration.
type PlacementChange struct {
	Vertex int64 `json:"vertex"`
	From   int64 `json:"from"`
	To     int64 `json:"to"`
}

// EpochDiff is the set of placement changes that produced one epoch from
// its predecessor — the unit of the GET /v1/watch feed. Changes are
// sorted by vertex ID and deduplicated; applying them (in epoch order)
// to a table at epoch N−1 yields exactly the table at epoch N. Immutable
// after publication.
type EpochDiff struct {
	Epoch   uint64            `json:"epoch"`
	Changes []PlacementChange `json:"changes"`
}

// Routing returns the currently published snapshot. Never nil: the
// constructor publishes epoch 1 before the server is reachable.
func (s *Server) Routing() *RoutingSnapshot {
	return s.routing.Load()
}

// publishRouting freezes the current assignment into the next epoch's
// snapshot, derives its diff from the partitioner's drained change set,
// swaps the snapshot in, and hands the diff to the watch hub. Callers
// must hold s.mu (write): it reads the live assignment and mutates the
// partitioner's change buffer. No-ops when nothing changed, so idle
// ticks do not inflate epochs.
func (s *Server) publishRouting() {
	candidates := s.part.DrainChanges()
	if len(candidates) == 0 {
		return
	}
	prev := s.routing.Load()
	cur := s.part.Assignment().Freeze()
	changes := diffChanges(prev.Table, cur, candidates)
	if len(changes) == 0 {
		// Every candidate settled back where it started (e.g. a vertex
		// removed and re-added to the same partition in one batch).
		return
	}
	next := &RoutingSnapshot{
		Epoch:           prev.Epoch + 1,
		Table:           cur,
		CreatedUnixNano: time.Now().UnixNano(),
	}
	s.routing.Store(next)
	s.publishes.Add(1)
	s.hub.publish(&EpochDiff{Epoch: next.Epoch, Changes: changes})
}

// publishInitialRouting installs epoch 1 from the constructor-time
// assignment (empty for New, the restored table for Restore). It runs
// before the server is shared, so no locking. Epoch 1 deliberately has
// no diff in the watch ring: a watcher bootstraps with a full read at
// epoch E and follows from E+1 (docs/API.md).
func (s *Server) publishInitialRouting() {
	s.part.SetChangeTracking(true)
	s.routing.Store(&RoutingSnapshot{
		Epoch:           1,
		Table:           s.part.Assignment().Freeze(),
		CreatedUnixNano: time.Now().UnixNano(),
	})
}

// diffChanges reduces the raw change candidates (duplicates and
// round-trips included) to the sorted, deduplicated transition list
// between two frozen tables.
func diffChanges(prev, cur *partition.Frozen, candidates []graph.VertexID) []PlacementChange {
	slices.Sort(candidates)
	changes := make([]PlacementChange, 0, len(candidates))
	last := graph.NoVertex
	for _, v := range candidates {
		if v == last {
			continue
		}
		last = v
		from, to := prev.Of(v), cur.Of(v)
		if from == to {
			continue
		}
		changes = append(changes, PlacementChange{
			Vertex: int64(v), From: int64(from), To: int64(to),
		})
	}
	return changes
}

package server

import (
	"slices"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
)

// This file is the serving plane's write side: deriving epoch-numbered
// routing snapshots from the partitioner and swapping them in through an
// atomic pointer. Read endpoints (single, batch, watch) consume only the
// published snapshot and never touch the adaptation state lock — see
// docs/API.md for the consistency contract this buys.

// RoutingSnapshot is one immutable, epoch-numbered routing table: the
// compact vertex→partition map the read endpoints serve from. The tick
// loop publishes one into the read plane after each applied mutation
// batch and after each tick's adaptation steps; the plane's published
// pointer is the only copy.
type RoutingSnapshot = readplane.Snapshot

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
// constructor publishes epoch 1 before the server is reachable, and the
// primary never withdraws its table.
func (s *Server) Routing() *RoutingSnapshot {
	return s.plane.Current()
}

// publishRouting freezes the current assignment into the next epoch's
// snapshot, derives its diff from the partitioner's drained change set,
// publishes the snapshot into the read plane and hands the diff to the
// watch hub. Callers must hold s.mu (write): it reads the live
// assignment and mutates the partitioner's change buffer. No-ops when
// nothing changed, so idle ticks do not inflate epochs.
func (s *Server) publishRouting() {
	candidates := s.part.DrainChanges()
	if len(candidates) == 0 {
		return
	}
	prev := s.Routing()
	cur := s.part.Assignment().Freeze()
	changes := diffChanges(prev.Table, cur, candidates)
	if len(changes) == 0 {
		// Every candidate settled back where it started (e.g. a vertex
		// removed and re-added to the same partition in one batch).
		return
	}
	s.plane.Publish(prev.Epoch+1, cur)
	s.publishes.Add(1)
	s.hub.publish(&EpochDiff{Epoch: prev.Epoch + 1, Changes: changes})
}

// publishInitialRouting installs epoch 1 from the constructor-time
// assignment (empty for New, the restored table for Restore). It runs
// before the server is shared, so no locking. Epoch 1 deliberately has
// no diff in the watch ring: a watcher bootstraps with a full read at
// epoch E and follows from E+1 (docs/API.md).
func (s *Server) publishInitialRouting() {
	s.part.SetChangeTracking(true)
	s.plane.Publish(1, s.part.Assignment().Freeze())
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

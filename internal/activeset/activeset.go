// Package activeset implements the dirty-set/frontier bookkeeping shared
// by the incremental schedulers: core's active-set Step and the adaptive
// service's incremental Plan. One vertex is in exactly one of three
// states — scheduled (on the frontier, re-examined next pass), parked
// (awaiting capacity on specific destinations), or idle (settled; only a
// Mark re-schedules it).
package activeset

import (
	"slices"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Set is the scheduler state. The zero value is not usable; construct
// with New.
type Set struct {
	dirty     []bool // scheduled membership, indexed by vertex slot
	parkedBit []bool // parked membership, indexed by vertex slot
	frontier  []graph.VertexID
	next      []graph.VertexID
	// parked holds parked vertices per desired destination partition;
	// stale entries (vertices re-marked through another path) are
	// filtered by parkedBit when a destination is unparked, and lists
	// that outgrow the slot table are compacted in place so a
	// destination that stays at zero quota for a long run cannot
	// accumulate unbounded stale duplicates. compactScratch backs the
	// compaction's dedup bitmap.
	parked         [][]graph.VertexID
	compactScratch []bool
}

// New creates an empty set for k destination partitions.
func New(k int) *Set {
	return &Set{parked: make([][]graph.VertexID, k)}
}

// Grow sizes the bitmaps to the vertex table.
func (s *Set) Grow(slots int) {
	for len(s.dirty) < slots {
		s.dirty = append(s.dirty, false)
		s.parkedBit = append(s.parkedBit, false)
	}
}

// Len returns the number of scheduled vertices.
func (s *Set) Len() int { return len(s.frontier) }

// Mark schedules v for re-examination, unparking it if it was waiting on
// capacity. Idempotent: a vertex already scheduled is not appended twice.
// Out-of-range IDs are ignored (call Grow first).
func (s *Set) Mark(v graph.VertexID) {
	if int(v) >= len(s.dirty) || v < 0 || s.dirty[v] {
		return
	}
	s.parkedBit[v] = false
	s.dirty[v] = true
	s.frontier = append(s.frontier, v)
}

// MarkNeighborhood schedules v and every vertex whose Γ-count changes
// when v migrates: its out-neighbours, plus in-neighbours on directed
// graphs. Both incremental schedulers wake granted movers through this
// single definition of "neighbourhood".
func (s *Set) MarkNeighborhood(g *graph.Graph, v graph.VertexID) {
	s.Mark(v)
	g.ForEachNeighbor(v, s.Mark)
	if g.Directed() {
		g.ForEachInNeighbor(v, s.Mark)
	}
}

// Park records that v's request was hard-denied towards every
// destination in dsts. v leaves the frontier (the caller must not keep
// it at Rebuild) and re-wakes on UnparkDest of one of the destinations,
// UnparkAll, or a Mark from a neighbourhood event.
func (s *Set) Park(v graph.VertexID, dsts []partition.ID) {
	if int(v) >= len(s.dirty) || v < 0 {
		return
	}
	s.dirty[v] = false
	s.parkedBit[v] = true
	for _, dst := range dsts {
		if len(s.parked[dst]) >= len(s.dirty) {
			s.compactParked(dst)
		}
		s.parked[dst] = append(s.parked[dst], v)
	}
}

// compactParked rewrites a park list keeping one entry per still-parked
// vertex, dropping entries for vertices woken since parking. A vertex
// re-parked under a different destination may be retained — a spurious
// unpark is safe (the vertex is just re-examined once) — so each list
// stays bounded by the slot count while every genuine waiter survives.
func (s *Set) compactParked(dst partition.ID) {
	for len(s.compactScratch) < len(s.parkedBit) {
		s.compactScratch = append(s.compactScratch, false)
	}
	out := s.parked[dst][:0]
	for _, v := range s.parked[dst] {
		if s.parkedBit[v] && !s.compactScratch[v] {
			s.compactScratch[v] = true
			out = append(out, v)
		}
	}
	for _, v := range out {
		s.compactScratch[v] = false
	}
	s.parked[dst] = out
}

// UnparkDest re-schedules every vertex parked on destination j.
func (s *Set) UnparkDest(j partition.ID) {
	for _, v := range s.parked[j] {
		if int(v) < len(s.parkedBit) && s.parkedBit[v] {
			s.Mark(v)
		}
	}
	s.parked[j] = s.parked[j][:0]
}

// UnparkAll re-schedules every parked vertex — called when capacities
// are re-derived, which can raise any destination's quota.
func (s *Set) UnparkAll() {
	for j := range s.parked {
		s.UnparkDest(partition.ID(j))
	}
}

// Prepare compacts the frontier (dropping vertices for which alive
// reports false) and sorts it by vertex ID, so that drain order — and
// therefore the order quota claims are made in — is deterministic. The
// returned slice is valid until the next Rebuild, which closes the
// drain: the vertices it keeps stay scheduled, every other one settles,
// and Park after Rebuild parks the hard-denied ones.
//
// The frontier is usually a long ascending run (the vertices kept from
// the previous pass, in drain order) followed by the vertices woken
// since, so Prepare finds the ascending prefix in the same scan that
// drops the dead, sorts only the remainder and merges it in: O(D + W log
// W) for D scheduled and W woken vertices. Nothing relies on callers
// keeping the prefix sorted; an unsorted frontier just has a short one.
func (s *Set) Prepare(alive func(graph.VertexID) bool) []graph.VertexID {
	live := s.frontier[:0]
	sorted := 0 // live[:sorted] is strictly ascending
	for _, v := range s.frontier {
		if !alive(v) {
			s.dirty[v] = false
			continue
		}
		if sorted == len(live) && (sorted == 0 || live[sorted-1] < v) {
			sorted++
		}
		live = append(live, v)
	}
	if sorted < len(live) {
		s.next = mergeTail(live, sorted, s.next)
	}
	s.frontier = live
	s.next = s.next[:0]
	return live
}

// mergeTail sorts ids, whose first n entries are already ascending. The
// tail is sorted in scratch (returned, for reuse) and merged back into
// ids from the end, so prefix entries below the smallest tail entry never
// move.
func mergeTail(ids []graph.VertexID, n int, scratch []graph.VertexID) []graph.VertexID {
	tail := append(scratch[:0], ids[n:]...)
	slices.Sort(tail)
	i, k := n-1, len(ids)-1
	for j := len(tail) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > tail[j] {
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = tail[j]
			j--
		}
	}
	return tail
}

// Rebuild closes a drain: every vertex of the prepared frontier settles
// except those in the keep lists, and the frontier becomes their
// concatenation. Lists kept from contiguous, ascending shard ranges
// concatenate to an ascending frontier, which the next Prepare keeps
// without sorting; any other order is still correct, just sorted there.
// Every kept vertex must come from the prepared frontier.
func (s *Set) Rebuild(keeps ...[]graph.VertexID) {
	for _, v := range s.frontier {
		s.dirty[v] = false
	}
	s.next = s.next[:0]
	for _, keep := range keeps {
		for _, v := range keep {
			s.dirty[v] = true
		}
		s.next = append(s.next, keep...)
	}
	s.frontier, s.next = s.next, s.frontier[:0]
}

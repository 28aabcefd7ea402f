package partition

import (
	"fmt"

	"xdgp/internal/graph"
)

// Frozen is an immutable point-in-time copy of an Assignment: a compact
// slot-indexed vertex→partition table (1 byte per slot) with no size
// counters and no mutators. Once built it is never written again, so any
// number of goroutines may read it concurrently without synchronization —
// this is the routing-table representation the daemon's serving plane
// publishes through an atomic pointer, one epoch per adaptation step
// (see internal/server).
type Frozen struct {
	of       []cell
	k        int
	assigned int
}

// Freeze copies the current table into a new Frozen. The copy is what
// makes the immutability contract hold: later Assign calls on the
// Assignment cannot reach a published Frozen. Cost is one O(slots) copy
// (the assigned count comes from the size counters, not a rescan);
// callers on a hot write path should freeze once per batch of changes,
// not once per change. (The other builders — NewFrozen and Apply —
// exist for replicas reconstructing a table from the wire instead of
// from a live Assignment.)
func (a *Assignment) Freeze() *Frozen {
	return &Frozen{
		of:       append([]cell(nil), a.of...),
		k:        a.k,
		assigned: a.Assigned(),
	}
}

// Of returns the partition of v, or None when v is unassigned or outside
// the table. Safe for unsynchronized concurrent use: it is one bounds
// check and one array load on immutable data.
func (f *Frozen) Of(v graph.VertexID) ID {
	if v < 0 || int(v) >= len(f.of) {
		return None
	}
	return f.of[v].id()
}

// K returns the number of partitions the table was frozen with.
func (f *Frozen) K() int { return f.k }

// Slots returns the size of the frozen vertex table (the exclusive upper
// bound on vertex IDs it can answer for).
func (f *Frozen) Slots() int { return len(f.of) }

// Assigned returns the number of vertices that held a partition at
// freeze time.
func (f *Frozen) Assigned() int { return f.assigned }

// Scan calls fn for every assigned vertex whose ID lies in [from, to),
// in ascending ID order; unassigned slots are skipped. The bounds are
// clamped to the table, so callers may page through a Frozen in
// fixed-width ID chunks without sizing arithmetic — this is how the
// daemon serves replica bootstrap pages (docs/REPLICATION.md).
func (f *Frozen) Scan(from, to int, fn func(v graph.VertexID, p ID)) {
	if from < 0 {
		from = 0
	}
	if to > len(f.of) {
		to = len(f.of)
	}
	for i := from; i < to; i++ {
		if c := f.of[i]; c != cellOf(None) {
			fn(graph.VertexID(i), c.id())
		}
	}
}

// Change is one vertex's new placement — the unit in which a frozen
// table is built or advanced outside the partitioner: bootstrap pages
// and watch-feed epoch diffs both reduce to []Change. To == None clears
// the vertex (it was removed upstream).
type Change struct {
	// Vertex is the vertex whose placement changes.
	Vertex graph.VertexID
	// To is the vertex's new partition, None for "no longer placed".
	To ID
}

// NewFrozen returns an empty frozen table for k partitions: no slots, no
// assignments. It is the seed state a replica applies bootstrap pages
// onto; the primary's serving plane never needs it (tables there come
// from Assignment.Freeze). It panics when k exceeds MaxK.
func NewFrozen(k int) *Frozen {
	if k > MaxK {
		panic(fmt.Sprintf("partition: k=%d exceeds MaxK=%d", k, MaxK))
	}
	return &Frozen{k: k}
}

// Apply returns a new Frozen with the changes applied on top of f, in
// order (later changes to the same vertex win). The receiver is not
// modified — published tables stay immutable — and the result's slot
// table grows to cover the highest changed vertex ID. Cost is
// O(slots + changes): replicas pay one table copy per epoch diff, which
// keeps their read path identical to the primary's (one atomic load, one
// array read, no locks). It panics when a change's To is neither None nor
// below K; a replica checks decoded changes before they get here.
func (f *Frozen) Apply(changes []Change) *Frozen {
	slots := len(f.of)
	for _, c := range changes {
		if c.To < None || int(c.To) >= f.k {
			panic(fmt.Sprintf("partition: change of vertex %d to %d outside k=%d", c.Vertex, c.To, f.k))
		}
		if int(c.Vertex) >= slots {
			slots = int(c.Vertex) + 1
		}
	}
	nf := &Frozen{
		of:       make([]cell, slots),
		k:        f.k,
		assigned: f.assigned,
	}
	copy(nf.of, f.of)
	for _, c := range changes {
		if c.Vertex < 0 {
			continue // defensive: wire-validated inputs never carry these
		}
		if nf.of[c.Vertex] != cellOf(None) {
			nf.assigned--
		}
		if c.To != None {
			nf.assigned++
		}
		nf.of[c.Vertex] = cellOf(c.To)
	}
	return nf
}

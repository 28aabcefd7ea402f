// Package partition defines the partition-assignment table, capacity
// bookkeeping and quality metrics shared by the sequential heuristic, the
// BSP engine and the experiment harness, together with the four initial
// partitioning strategies the paper evaluates (Section 4.2.1): hash (HSH),
// balanced pseudorandom (RND), linear deterministic greedy (DGR, Stanton &
// Kliot KDD'12) and minimum number of neighbours (MNN, Prabhakaran et al.
// ATC'12).
package partition

import (
	"fmt"
	"math"

	"xdgp/internal/graph"
)

// ID identifies a partition, 0 ≤ ID < K. None marks unassigned vertices.
type ID int32

// None is the assignment of a vertex that has not been placed yet.
const None ID = -1

// MaxK is the largest partition count a placement table can hold. Both
// tables (Assignment and Frozen) store one byte per vertex slot, so every
// entry point that takes k refuses k > MaxK with an error.
const MaxK = 255

// cell is one slot of a placement table: p+1 for partition p, 0 for None.
// Tables are read once per neighbour in every vote tally and copied once
// per published epoch, so the one-byte width keeps them small next to the
// graph. Writers check p against K before encoding, so no value wraps.
type cell uint8

// cellOf encodes None or a partition below MaxK.
func cellOf(p ID) cell { return cell(p + 1) }

// id decodes a cell.
func (c cell) id() ID { return ID(c) - 1 }

// Assignment maps every live vertex to a partition and tracks partition
// sizes. It is indexed by dense VertexID, so lookups are array accesses.
// An Assignment is NOT safe for concurrent use: readers and writers must
// share a lock (the daemon's adaptation path does), or readers should
// take an immutable Freeze copy and drop the lock entirely — that is the
// serving plane's approach.
type Assignment struct {
	of    []cell
	sizes []int
	k     int
}

// NewAssignment creates an assignment table for the given number of vertex
// slots and k partitions, with every vertex unassigned. It panics when k
// exceeds MaxK; the entry points that take k from a user or a file refuse
// that with an error first.
func NewAssignment(slots, k int) *Assignment {
	if k > MaxK {
		panic(fmt.Sprintf("partition: k=%d exceeds MaxK=%d", k, MaxK))
	}
	return &Assignment{
		of:    make([]cell, slots),
		sizes: make([]int, k),
		k:     k,
	}
}

// K returns the number of partitions.
func (a *Assignment) K() int { return a.k }

// Slots returns the size of the vertex table the assignment covers.
func (a *Assignment) Slots() int { return len(a.of) }

// Grow extends the table to cover at least slots vertex IDs.
func (a *Assignment) Grow(slots int) {
	if n := slots - len(a.of); n > 0 {
		a.of = append(a.of, make([]cell, n)...)
	}
}

// Of returns the partition of v, or None if v is unassigned or out of
// range.
func (a *Assignment) Of(v graph.VertexID) ID {
	if int(v) >= len(a.of) || v < 0 {
		return None
	}
	return a.of[v].id()
}

// Assign places v in partition p, updating size counters. Assigning to the
// current partition is a no-op; assigning None removes the vertex. It
// panics when p is neither None nor below K.
func (a *Assignment) Assign(v graph.VertexID, p ID) {
	if p < None || int(p) >= a.k {
		panic(fmt.Sprintf("partition: Assign(%d, %d) outside k=%d", v, p, a.k))
	}
	a.Grow(int(v) + 1)
	old := a.of[v].id()
	if old == p {
		return
	}
	if old != None {
		a.sizes[old]--
	}
	if p != None {
		a.sizes[p]++
	}
	a.of[v] = cellOf(p)
}

// Unassign removes v from its partition.
func (a *Assignment) Unassign(v graph.VertexID) { a.Assign(v, None) }

// Size returns the number of vertices currently in partition p.
func (a *Assignment) Size(p ID) int { return a.sizes[p] }

// Sizes returns a copy of the per-partition sizes.
func (a *Assignment) Sizes() []int { return append([]int(nil), a.sizes...) }

// Assigned returns the total number of assigned vertices.
func (a *Assignment) Assigned() int {
	total := 0
	for _, s := range a.sizes {
		total += s
	}
	return total
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{
		of:    append([]cell(nil), a.of...),
		sizes: append([]int(nil), a.sizes...),
		k:     a.k,
	}
}

// Table returns a copy of the full slot-indexed assignment table
// (None for unassigned slots). It is the serialization form used by the
// snapshot path; the copy keeps internal state unaliased.
func (a *Assignment) Table() []ID {
	table := make([]ID, len(a.of))
	for i, c := range a.of {
		table[i] = c.id()
	}
	return table
}

// FromTable reconstructs an assignment from a slot-indexed table as
// produced by Table, re-deriving the per-partition size counters. A k
// outside [1, MaxK] and entries outside [0,k) other than None are
// rejected.
func FromTable(table []ID, k int) (*Assignment, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("partition: k must be in [1, %d], got %d", MaxK, k)
	}
	a := &Assignment{
		of:    make([]cell, len(table)),
		sizes: make([]int, k),
		k:     k,
	}
	for slot, p := range table {
		if p == None {
			continue
		}
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("partition: slot %d has invalid partition %d (k=%d)", slot, p, k)
		}
		a.of[slot] = cellOf(p)
		a.sizes[p]++
	}
	return a, nil
}

// Validate checks that the assignment is a proper partition of g's live
// vertices: every live vertex assigned to a valid partition, no dead
// vertex assigned, and size counters consistent.
func (a *Assignment) Validate(g *graph.Graph) error {
	counts := make([]int, a.k)
	var err error
	g.ForEachVertex(func(v graph.VertexID) {
		if err != nil {
			return
		}
		p := a.Of(v)
		if p == None || int(p) >= a.k {
			err = fmt.Errorf("vertex %d has invalid partition %d", v, p)
			return
		}
		counts[p]++
	})
	if err != nil {
		return err
	}
	for i, c := range a.of {
		if c != cellOf(None) && !g.Has(graph.VertexID(i)) {
			return fmt.Errorf("dead vertex %d still assigned to %d", i, c.id())
		}
	}
	for p, c := range counts {
		if c != a.sizes[p] {
			return fmt.Errorf("partition %d size counter %d != actual %d", p, a.sizes[p], c)
		}
	}
	return nil
}

// CutEdges counts edges whose endpoints are in different partitions (the
// edge-cut set E_c of the paper's Definition 1). Unassigned endpoints
// count as cut, since their messages cannot be local.
func CutEdges(g *graph.Graph, a *Assignment) int {
	cut := 0
	g.ForEachEdge(func(u, v graph.VertexID) {
		if a.Of(u) != a.Of(v) || a.Of(u) == None {
			cut++
		}
	})
	return cut
}

// CutRatio is the paper's quality gold standard: |E_c| normalised to the
// total number of edges. It returns 0 for an empty graph.
func CutRatio(g *graph.Graph, a *Assignment) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	return float64(CutEdges(g, a)) / float64(m)
}

// Imbalance returns max partition size divided by the balanced share
// (assigned/k); 1.0 is perfect balance. It returns 0 when nothing is
// assigned.
func Imbalance(a *Assignment) float64 {
	total := a.Assigned()
	if total == 0 {
		return 0
	}
	maxSize := 0
	for _, s := range a.sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	return float64(maxSize) / (float64(total) / float64(a.k))
}

// UniformCapacities returns the per-partition capacity vector the paper's
// experiments use: factor × the balanced load, rounded up (Figure 4 uses
// "maximum capacity equal to 110% of the balanced load", factor = 1.10).
func UniformCapacities(n, k int, factor float64) []int {
	caps := make([]int, k)
	per := int(math.Ceil(float64(n) / float64(k) * factor))
	for i := range caps {
		caps[i] = per
	}
	return caps
}

// WithinCapacities reports whether every partition size respects caps.
func WithinCapacities(a *Assignment, caps []int) bool {
	for p, s := range a.sizes {
		if p < len(caps) && s > caps[p] {
			return false
		}
	}
	return true
}

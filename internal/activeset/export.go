package activeset

import (
	"fmt"
	"slices"

	"xdgp/internal/graph"
)

// State is the canonical serializable form of a Set, used by the
// checkpoint/restore path. It captures exactly the scheduling-relevant
// content — which vertices are on the frontier and which are parked under
// which destinations — in a normalized shape: both collections sorted,
// stale park entries (vertices woken since parking) dropped, and
// duplicates within one destination list collapsed. The scheduler's
// behaviour is invariant under this normalization: Prepare drains the
// frontier in ascending ID order whatever order it was scheduled in, and
// Mark/UnparkDest are idempotent, so a restored Set drains identically
// to the live one it was exported from.
type State struct {
	// Frontier holds the scheduled vertices, ascending.
	Frontier []graph.VertexID
	// Parked holds, per destination partition, the vertices parked on it,
	// ascending. A vertex awaiting several destinations appears in each.
	Parked [][]graph.VertexID
}

// Export returns the canonical State of the set. All slices are fresh
// copies; mutating them does not affect the set.
func (s *Set) Export() State {
	st := State{
		Frontier: append([]graph.VertexID(nil), s.frontier...),
		Parked:   make([][]graph.VertexID, len(s.parked)),
	}
	slices.Sort(st.Frontier)
	for j, list := range s.parked {
		var out []graph.VertexID
		for _, v := range list {
			if int(v) < len(s.parkedBit) && s.parkedBit[v] {
				out = append(out, v)
			}
		}
		slices.Sort(out)
		st.Parked[j] = dedupSorted(out)
	}
	return st
}

// RestoreSet builds a Set for k destinations and slots vertex slots
// holding exactly the given state. It validates shape (k park lists, IDs
// within the slot table) and the single-state invariant: a vertex cannot
// be both scheduled and parked.
func RestoreSet(k, slots int, st State) (*Set, error) {
	if len(st.Parked) != 0 && len(st.Parked) != k {
		return nil, fmt.Errorf("activeset: state has %d park lists, want %d", len(st.Parked), k)
	}
	s := New(k)
	s.Grow(slots)
	for _, v := range st.Frontier {
		if v < 0 || int(v) >= slots {
			return nil, fmt.Errorf("activeset: frontier vertex %d outside slot table [0,%d)", v, slots)
		}
		s.Mark(v)
	}
	for j, list := range st.Parked {
		for _, v := range list {
			if v < 0 || int(v) >= slots {
				return nil, fmt.Errorf("activeset: parked vertex %d outside slot table [0,%d)", v, slots)
			}
			if s.dirty[v] {
				return nil, fmt.Errorf("activeset: vertex %d both scheduled and parked on %d", v, j)
			}
			s.parkedBit[v] = true
			s.parked[j] = append(s.parked[j], v)
		}
	}
	return s, nil
}

func dedupSorted(ids []graph.VertexID) []graph.VertexID {
	if len(ids) < 2 {
		return ids
	}
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

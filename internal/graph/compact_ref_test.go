package graph

import "sort"

// CompactReference rebuilds g's arenas with compactReference, the
// straightforward per-vertex builder the block-copying Compact must
// reproduce byte for byte. Test-only: the external differential test
// (compact_test.go) reaches it through this export.
func CompactReference(g *Graph) {
	g.out.compactReference()
	if g.directed {
		g.in.compactReference()
	}
	g.compactions++
}

// compactReference sizes the arena with a degree pass over every slot,
// then appends each vertex's span in slot order, merging the overlay of
// dirty vertices.
func (s *store) compactReference() {
	total := 0
	for i := range s.spans {
		total += s.degree(VertexID(i))
	}
	arena := make([]VertexID, 0, total)
	for i := range s.spans {
		v := VertexID(i)
		off := uint32(len(arena))
		o := s.overlayOf(v)
		base := s.base(v)
		if o == nil {
			arena = append(arena, base...)
		} else {
			sort.Slice(o.adds, func(i, j int) bool { return o.adds[i] < o.adds[j] })
			ai := 0
			for _, w := range base {
				for ai < len(o.adds) && o.adds[ai] < w {
					arena = append(arena, o.adds[ai])
					ai++
				}
				arena = append(arena, w)
			}
			arena = append(arena, o.adds[ai:]...)
		}
		s.spans[i] = span{off: off, n: int32(len(arena)) - int32(off)}
	}
	s.arena = arena
	s.ovIdx = nil
	s.ovTab = nil
	s.ovEnts = 0
	s.garbage = 0
}

package graph

import "fmt"

// checkInvariantsRef is the straightforward invariant check that the
// one-pass CheckInvariants must agree with: it shares checkStructure,
// but every edge end proves its reverse half with a binary-searched
// lookup (store.has), so symmetry is checked edge by edge rather than
// by counting. Test-only: the differential tests and FuzzDecodeGraph
// require CheckInvariants to reject exactly the payloads it rejects.
func (g *Graph) checkInvariantsRef() error {
	slots := len(g.out.spans)
	if len(g.alive) != slots {
		return fmt.Errorf("alive table %d != slots %d", len(g.alive), slots)
	}
	if g.directed && len(g.in.spans) != slots {
		return fmt.Errorf("in-spans %d != slots %d", len(g.in.spans), slots)
	}
	if err := g.out.checkStructure(slots, "out"); err != nil {
		return err
	}
	if g.directed {
		if err := g.in.checkStructure(slots, "in"); err != nil {
			return err
		}
	}
	liveCount := 0
	outEnds, inEnds := 0, 0
	for id := range g.alive {
		v := VertexID(id)
		if !g.alive[id] {
			if g.out.spans[v].n != 0 || g.out.overlayOf(v) != nil {
				return fmt.Errorf("dead vertex %d has out-adjacency state", v)
			}
			if g.directed && (g.in.spans[v].n != 0 || g.in.overlayOf(v) != nil) {
				return fmt.Errorf("dead vertex %d has in-adjacency state", v)
			}
			continue
		}
		liveCount++
		for c := g.out.cursor(v); ; {
			w, ok := c.Next()
			if !ok {
				break
			}
			outEnds++
			if !g.Has(w) {
				return fmt.Errorf("edge (%d,%d) points to dead vertex", v, w)
			}
			if w == v {
				return fmt.Errorf("self-loop at %d", v)
			}
			if g.directed {
				if !g.in.has(w, v) {
					return fmt.Errorf("missing in-edge for (%d,%d)", v, w)
				}
			} else if !g.out.has(w, v) {
				return fmt.Errorf("missing reverse edge for (%d,%d)", v, w)
			}
		}
		if g.directed {
			for c := g.in.cursor(v); ; {
				w, ok := c.Next()
				if !ok {
					break
				}
				inEnds++
				if !g.Has(w) {
					return fmt.Errorf("in-edge (%d,%d) points to dead vertex", w, v)
				}
				if !g.out.has(w, v) {
					return fmt.Errorf("in-edge (%d,%d) missing its out half", w, v)
				}
			}
		}
	}
	if liveCount != g.n {
		return fmt.Errorf("live count %d != n %d", liveCount, g.n)
	}
	wantEnds := 2 * g.m
	if g.directed {
		wantEnds = g.m
		if inEnds != g.m {
			return fmt.Errorf("in-edge ends %d != m %d", inEnds, g.m)
		}
	}
	if outEnds != wantEnds {
		return fmt.Errorf("edge ends %d != expected %d (m=%d)", outEnds, wantEnds, g.m)
	}
	if len(g.free)+liveCount != slots {
		return fmt.Errorf("free list %d + live %d != slots %d", len(g.free), liveCount, slots)
	}
	seen := make(map[VertexID]bool, len(g.free))
	for _, f := range g.free {
		if f < 0 || int(f) >= slots {
			return fmt.Errorf("free list entry %d out of range", f)
		}
		if g.alive[f] {
			return fmt.Errorf("free list contains live vertex %d", f)
		}
		if seen[f] {
			return fmt.Errorf("free list contains %d twice", f)
		}
		seen[f] = true
	}
	return nil
}

package graph

// Cursor iterates one vertex's adjacency without allocating. A vertex's
// live adjacency is at most two contiguous runs — its base span in the
// arena (sorted, spliced in place on removal) and its overlay adds (in
// insertion order) — so iteration needs no merge logic. Obtain a cursor
// with NeighborCursor/InNeighborCursor, or reuse one across a sweep with
// Reset/ResetIn:
//
//	for c := g.NeighborCursor(v); ; {
//		w, ok := c.Next()
//		if !ok {
//			break
//		}
//		...
//	}
//
// A cursor is a point-in-time view: it must not be used across mutations
// of the graph. Concurrent cursors over an unmutated graph are safe — the
// sharded sweep and the BSP workers iterate this way.
type Cursor struct {
	base []VertexID
	adds []VertexID
	bi   int
	ai   int
}

// NeighborCursor returns a cursor over v's out-neighbours (all neighbours
// for undirected graphs). Dead vertices yield an empty cursor.
func (g *Graph) NeighborCursor(v VertexID) Cursor {
	var c Cursor
	c.Reset(g, v)
	return c
}

// InNeighborCursor returns a cursor over v's in-neighbours (identical to
// NeighborCursor for undirected graphs).
func (g *Graph) InNeighborCursor(v VertexID) Cursor {
	var c Cursor
	c.ResetIn(g, v)
	return c
}

// Reset repoints the cursor at v's out-adjacency (all neighbours for
// undirected graphs). Re-using one cursor variable across a sweep avoids
// copying the cursor struct per vertex — the form the per-iteration
// migration sweep uses.
func (c *Cursor) Reset(g *Graph, v VertexID) { c.reset(&g.out, v) }

// ResetIn repoints the cursor at v's in-adjacency (identical to Reset for
// undirected graphs).
func (c *Cursor) ResetIn(g *Graph, v VertexID) {
	if g.directed {
		c.reset(&g.in, v)
	} else {
		c.reset(&g.out, v)
	}
}

func (c *Cursor) reset(s *store, v VertexID) {
	c.bi, c.ai = 0, 0
	c.base, c.adds = nil, nil
	if uint(v) < uint(len(s.spans)) {
		c.base, c.adds = s.runs(v)
	}
}

// runs returns v's base arena span and its overlay adds (nil when
// clean); v must be below the slot count.
func (s *store) runs(v VertexID) (base, adds []VertexID) {
	sp := s.spans[v]
	base = s.arena[sp.off : sp.off+uint32(sp.n)]
	// ovIdx is nil (no overlay anywhere) or covers every slot.
	if s.ovIdx != nil && s.ovIdx[v] >= 0 {
		adds = s.ovTab[s.ovIdx[v]].adds
	}
	return base, adds
}

func (s *store) cursor(v VertexID) Cursor {
	var c Cursor
	c.reset(s, v)
	return c
}

// Next returns the next live neighbour. The second result is false when
// the adjacency is exhausted.
func (c *Cursor) Next() (VertexID, bool) {
	if c.bi < len(c.base) {
		w := c.base[c.bi]
		c.bi++
		return w, true
	}
	if c.ai < len(c.adds) {
		w := c.adds[c.ai]
		c.ai++
		return w, true
	}
	return NoVertex, false
}

// NextChunk returns the next contiguous run of live neighbours, or nil
// when the adjacency is exhausted: the base arena span first, then the
// overlay adds. Callers iterate each chunk at raw slice-range speed — at
// most two calls plus a terminating one per vertex:
//
//	for c := g.NeighborCursor(v); ; {
//		chunk := c.NextChunk()
//		if chunk == nil {
//			break
//		}
//		for _, w := range chunk {
//			...
//		}
//	}
//
// Chunks are views into graph-owned memory: never mutate them. NextChunk
// and Next draw from the same position and may be interleaved.
func (c *Cursor) NextChunk() []VertexID {
	if c.bi < len(c.base) {
		chunk := c.base[c.bi:]
		c.bi = len(c.base)
		return chunk
	}
	if c.ai < len(c.adds) {
		chunk := c.adds[c.ai:]
		c.ai = len(c.adds)
		return chunk
	}
	return nil
}

// Contains reports whether x is a neighbour of the cursor's vertex; the
// answer equals HasEdge(v, x). Successive queries on one cursor must not
// descend: x must be ≥ the previous query. The sorted base span is then
// walked forward once per cursor, never past an entry equal to x, so a
// repeated query still finds it; the overlay adds, in insertion order, are
// scanned per query exactly as HasEdge scans them. Removals splice base
// entries out and dead vertices have no adjacency, so the walk needs no
// liveness check. Contains reads base and adds directly — when the base is
// empty NextChunk would return the adds first — and must not be mixed with
// Next or NextChunk on the same cursor.
func (c *Cursor) Contains(x VertexID) bool {
	for c.bi < len(c.base) && c.base[c.bi] < x {
		c.bi++
	}
	if c.bi < len(c.base) && c.base[c.bi] == x {
		return true
	}
	for _, w := range c.adds {
		if w == x {
			return true
		}
	}
	return false
}

// AdjacencyChunks returns v's out-adjacency, or with in set its
// in-adjacency (the same out-adjacency on undirected graphs, as with
// ResetIn), as two contiguous runs: the arena span, which is all of a
// vertex untouched since the last compaction, then the overlay adds (nil
// when clean). v must be below NumSlots. The migration scorer tallies
// out-runs then in-runs, base before adds; the heat-weighted vote sums
// float64s in that order, so the order is part of the contract. Runs are
// views into graph-owned memory: never mutate them. It returns the runs,
// and is small enough to inline, because the scorer calls it once per
// vertex and direction in the hottest loop of the system: a callback
// visitor cost that loop a measurable share of its time.
func (g *Graph) AdjacencyChunks(v VertexID, in bool) (base, adds []VertexID) {
	s := &g.out
	if in && g.directed {
		s = &g.in
	}
	return s.runs(v)
}

// ForEachNeighbor calls fn for every out-neighbour of v (every neighbour
// when undirected), allocation-free.
func (g *Graph) ForEachNeighbor(v VertexID, fn func(VertexID)) {
	for c := g.NeighborCursor(v); ; {
		chunk := c.NextChunk()
		if chunk == nil {
			return
		}
		for _, w := range chunk {
			fn(w)
		}
	}
}

// ForEachInNeighbor calls fn for every in-neighbour of v (identical to
// ForEachNeighbor for undirected graphs), allocation-free.
func (g *Graph) ForEachInNeighbor(v VertexID, fn func(VertexID)) {
	for c := g.InNeighborCursor(v); ; {
		chunk := c.NextChunk()
		if chunk == nil {
			return
		}
		for _, w := range chunk {
			fn(w)
		}
	}
}

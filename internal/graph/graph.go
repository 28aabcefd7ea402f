// Package graph implements the in-memory dynamic graph store that every
// other subsystem builds on. Graphs are simple (no self-loops, no parallel
// edges), may be directed or undirected, and support streaming addition and
// removal of vertices and edges — the dynamism at the heart of the paper.
//
// Vertices are identified by dense integer IDs. Removing a vertex frees its
// ID for recycling, so long-running dynamic workloads (such as the paper's
// month of call-detail records with weekly addition/deletion churn) do not
// grow the vertex table without bound.
//
// # Storage layout
//
// Adjacency lives in a CSR-style arena with a mutable delta overlay rather
// than a slice of per-vertex slices: one flat []VertexID arena holds every
// vertex's base neighbour span (sorted ascending), an 8-byte span per slot
// points into it, edge additions land in a small per-vertex overlay of
// appends, and removals splice the base span in place (retiring the freed
// slot as arena garbage), so a vertex's adjacency is always at most two
// contiguous runs.
// Compact folds the overlay back into a fresh arena; it runs automatically
// once the overlay plus arena garbage outgrow a fixed fraction of the live
// edge ends, which keeps mutation cost amortised O(1) and bounds overlay
// scans. The layout cuts bytes-per-edge roughly in half against the naive
// [][]VertexID representation (no per-vertex slice headers, no allocator
// slack, no pointer chasing) and keeps the per-iteration neighbourhood
// sweep of the migration heuristic sequential in memory. Compaction points
// are a pure function of the mutation history, so two runs fed the same
// stream — or a run restored from a checkpoint mid-overlay — stay
// byte-identical. See docs/ARCHITECTURE.md, "Memory layout".
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense and recycled after removal,
// so they can index plain slices (assignment tables, per-vertex state).
type VertexID int32

// NoVertex is the sentinel returned when no vertex applies.
const NoVertex VertexID = -1

// Compaction policy: the overlay (adds + arena garbage) may grow to
// liveEnds/compactSlackDen entries before the next mutation folds it
// into a fresh arena. The fraction bounds the memory overhead, the
// linear overlay scans of HasEdge, and — most importantly — the share of
// vertices iterating through the slower dirty-cursor path between
// compactions; 1/16 keeps rebuild cost amortised at ~16 entry copies per
// mutation, which churn benchmarks show is far below the sweep savings.
// MaybeCompact — the explicit quiet-point trigger (the daemon between
// ticks) — folds four times more eagerly: mutation-time auto-compaction
// keeps the load at or below the 1/16 bar at every quiescent point, so a
// quiet-point trigger at the same bar would never fire. The floor keeps
// small graphs from compacting on every few mutations.
const (
	compactSlackDen      = 16
	eagerCompactSlackDen = 64
	minCompactSlack      = 1024
)

// span locates one vertex's base adjacency inside the arena: entries
// arena[off : off+n], sorted ascending. n counts base entries including
// those tombstoned by the overlay.
type span struct {
	off uint32
	n   int32
}

// overlay is the mutable delta of one vertex since the last compaction.
// It holds additions only: removals splice the base span in place (the
// span stays sorted and contiguous, the freed tail slot becomes arena
// garbage), so iteration over a dirty vertex is exactly two contiguous
// runs — base then adds — with no merge logic on the read path.
type overlay struct {
	// v is the owning vertex (backref for ovTab swap-deletes).
	v VertexID
	// adds holds neighbours gained since the last compaction, in insertion
	// order, deduplicated and disjoint from the base span.
	adds []VertexID
}

// store is one adjacency direction (out, or in for digraphs) in CSR-arena
// form with the mutation overlay on top. Overlays are reached through a
// per-slot index (an O(1) array load on the sweep's hot path, where a map
// probe would dominate) into a dense table; the index is allocated lazily
// on the first post-compaction mutation and released by Compact, so a
// converged, compacted graph carries zero overlay memory.
type store struct {
	arena   []VertexID // flat base adjacency; spans are sorted ascending
	spans   []span     // per-slot base span, len == slots
	ovIdx   []int32    // per-slot index into ovTab, -1 when clean; nil when no overlay exists
	ovTab   []overlay  // dense overlay table (order irrelevant; swap-deleted)
	ovEnts  int        // Σ len(adds) across ovTab
	garbage int        // arena entries retired by vertex removal
}

// Graph is a simple dynamic graph. The zero value is not usable; construct
// with NewUndirected or NewDirected.
//
// Graph is not safe for concurrent mutation. Concurrent readers (cursors,
// Neighbors, Degree, HasEdge) are safe as long as no mutation runs — the
// BSP engine and the sharded core sweep rely on exactly that.
type Graph struct {
	directed    bool
	out         store // out-adjacency (the only adjacency when undirected)
	in          store // in-adjacency; unused for undirected graphs
	alive       []bool
	free        []VertexID // recycled IDs, LIFO
	n           int        // live vertices
	m           int        // live edges (each undirected edge counted once)
	compactions uint64     // arena rebuilds since construction (stats only)
}

// NewUndirected creates an empty undirected graph with capacity hints for
// the expected number of vertices.
func NewUndirected(vertexHint int) *Graph {
	g := &Graph{alive: make([]bool, 0, vertexHint)}
	g.out.spans = make([]span, 0, vertexHint)
	return g
}

// NewDirected creates an empty directed graph with capacity hints for the
// expected number of vertices.
func NewDirected(vertexHint int) *Graph {
	g := NewUndirected(vertexHint)
	g.directed = true
	g.in.spans = make([]span, 0, vertexHint)
	return g
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of live vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of live edges; an undirected edge counts once.
func (g *Graph) NumEdges() int { return g.m }

// NumSlots returns the size of the underlying vertex table: every live
// VertexID is < NumSlots(). Callers use it to size ID-indexed arrays.
func (g *Graph) NumSlots() int { return len(g.out.spans) }

// Has reports whether id is a live vertex.
func (g *Graph) Has(id VertexID) bool {
	return id >= 0 && int(id) < len(g.alive) && g.alive[id]
}

// growSlot appends one slot to every per-slot table.
func (g *Graph) growSlot() {
	g.out.growSlot()
	if g.directed {
		g.in.growSlot()
	}
	g.alive = append(g.alive, false)
}

func (s *store) growSlot() {
	s.spans = append(s.spans, span{})
	if s.ovIdx != nil {
		s.ovIdx = append(s.ovIdx, -1)
	}
}

// AddVertex allocates a new vertex, recycling a freed ID if one is
// available, and returns its ID.
func (g *Graph) AddVertex() VertexID {
	var id VertexID
	if len(g.free) > 0 {
		id = g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		g.alive[id] = true
	} else {
		id = VertexID(len(g.out.spans))
		g.growSlot()
		g.alive[id] = true
	}
	g.n++
	return id
}

// EnsureVertex makes id a live vertex, growing the table as needed. It is
// used by loaders and generators that pick their own IDs. Adding an ID that
// is already live is a no-op.
func (g *Graph) EnsureVertex(id VertexID) {
	if id < 0 {
		return
	}
	for int(id) >= len(g.out.spans) {
		g.growSlot()
		g.free = append(g.free, VertexID(len(g.out.spans)-1))
	}
	if !g.alive[id] {
		// Remove id from the free list (it is there by construction).
		for i, f := range g.free {
			if f == id {
				g.free[i] = g.free[len(g.free)-1]
				g.free = g.free[:len(g.free)-1]
				break
			}
		}
		g.alive[id] = true
		g.n++
	}
}

// RemoveVertex deletes a vertex and all its incident edges. Removing a
// vertex that is not live is a no-op.
func (g *Graph) RemoveVertex(id VertexID) {
	if !g.Has(id) {
		return
	}
	// Detach the reverse half of every incident edge first. Mutating the
	// neighbours' overlays is safe while cursoring id's own adjacency.
	deg := 0
	for c := g.out.cursor(id); ; {
		w, ok := c.Next()
		if !ok {
			break
		}
		deg++
		if g.directed {
			g.in.del(w, id)
		} else {
			g.out.del(w, id)
		}
	}
	g.m -= deg
	if g.directed {
		indeg := 0
		for c := g.in.cursor(id); ; {
			w, ok := c.Next()
			if !ok {
				break
			}
			indeg++
			g.out.del(w, id)
		}
		g.m -= indeg
		g.in.clearVertex(id)
	}
	g.out.clearVertex(id)
	g.alive[id] = false
	g.free = append(g.free, id)
	g.n--
	g.maybeCompact()
}

// HasEdge reports whether the edge (u,v) exists. For undirected graphs the
// order of endpoints is irrelevant. Membership tests run a binary search
// over the sorted base span plus a bounded linear scan of the overlay, so
// hub vertices cost O(log d) rather than O(d).
func (g *Graph) HasEdge(u, v VertexID) bool {
	if !g.Has(u) || !g.Has(v) {
		return false
	}
	// Probe the smaller endpoint for undirected graphs: its overlay scan
	// is shorter (the base half is logarithmic either way).
	if !g.directed && g.out.degree(v) < g.out.degree(u) {
		return g.out.has(v, u)
	}
	return g.out.has(u, v)
}

// AddEdge inserts the edge (u,v). Both endpoints must be live; self-loops
// and duplicate edges are rejected. It reports whether the edge was added.
func (g *Graph) AddEdge(u, v VertexID) bool {
	if u == v || !g.Has(u) || !g.Has(v) || g.HasEdge(u, v) {
		return false
	}
	g.out.add(u, v)
	if g.directed {
		g.in.add(v, u)
	} else {
		g.out.add(v, u)
	}
	g.m++
	g.maybeCompact()
	return true
}

// RemoveEdge deletes the edge (u,v) if present and reports whether it did.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.out.del(u, v)
	if g.directed {
		g.in.del(v, u)
	} else {
		g.out.del(v, u)
	}
	g.m--
	g.maybeCompact()
	return true
}

// Neighbors returns the adjacency list of v: out-neighbours for directed
// graphs, all neighbours for undirected ones. For vertices untouched since
// the last compaction this is a zero-copy view into the arena; vertices
// with a pending overlay materialise a fresh slice. Hot paths iterate via
// NeighborCursor instead, which never allocates. The returned slice must
// not be mutated or retained across mutations.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	if !g.Has(v) {
		return nil
	}
	return g.out.neighbors(v)
}

// InNeighbors returns the in-adjacency of v for directed graphs; for
// undirected graphs it is identical to Neighbors. Same ownership and
// allocation contract as Neighbors.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	if !g.Has(v) {
		return nil
	}
	if g.directed {
		return g.in.neighbors(v)
	}
	return g.out.neighbors(v)
}

// Degree returns the out-degree of v (full degree for undirected graphs).
func (g *Graph) Degree(v VertexID) int {
	if !g.Has(v) {
		return 0
	}
	return g.out.degree(v)
}

// InDegree returns the in-degree of v (same as Degree when undirected).
func (g *Graph) InDegree(v VertexID) int {
	if !g.Has(v) {
		return 0
	}
	if g.directed {
		return g.in.degree(v)
	}
	return g.out.degree(v)
}

// ForEachVertex calls fn for every live vertex in increasing ID order.
func (g *Graph) ForEachVertex(fn func(VertexID)) {
	for id := range g.alive {
		if g.alive[id] {
			fn(VertexID(id))
		}
	}
}

// Vertices returns the live vertex IDs in increasing order.
func (g *Graph) Vertices() []VertexID {
	ids := make([]VertexID, 0, g.n)
	g.ForEachVertex(func(v VertexID) { ids = append(ids, v) })
	return ids
}

// ForEachEdge calls fn once per live edge. For undirected graphs each edge
// is visited once with u < v; for directed graphs fn receives (from, to).
func (g *Graph) ForEachEdge(fn func(u, v VertexID)) {
	for id := range g.alive {
		if !g.alive[id] {
			continue
		}
		u := VertexID(id)
		for c := g.out.cursor(u); ; {
			v, ok := c.Next()
			if !ok {
				break
			}
			if g.directed || u < v {
				fn(u, v)
			}
		}
	}
}

// Clone returns a deep copy of the graph, preserving the arena layout,
// overlay state and free-list order exactly — a clone behaves
// byte-identically to the original under any subsequent mutation sequence.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		directed:    g.directed,
		out:         g.out.clone(),
		alive:       append([]bool(nil), g.alive...),
		free:        append([]VertexID(nil), g.free...),
		n:           g.n,
		m:           g.m,
		compactions: g.compactions,
	}
	if g.directed {
		c.in = g.in.clone()
	}
	return c
}

// Undirected returns an undirected copy of the graph: each directed edge
// becomes an undirected edge, reciprocal pairs collapse to one. Calling it
// on an undirected graph returns a clone. Partitioning always operates on
// the undirected structure, since a cut edge costs communication in both
// directions.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g.Clone()
	}
	u := NewUndirected(len(g.out.spans))
	for u.NumSlots() < len(g.out.spans) {
		u.growSlot()
	}
	for id := range g.alive {
		if g.alive[id] {
			u.alive[id] = true
			u.n++
		} else {
			u.free = append(u.free, VertexID(id))
		}
	}
	g.ForEachEdge(func(a, b VertexID) { u.AddEdge(a, b) })
	return u
}

// MaxDegree returns the maximum degree over live vertices.
func (g *Graph) MaxDegree() int {
	max := 0
	g.ForEachVertex(func(v VertexID) {
		if d := g.Degree(v); d > max {
			max = d
		}
	})
	return max
}

// AvgDegree returns the average (out-)degree over live vertices.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	if g.directed {
		return float64(g.m) / float64(g.n)
	}
	return 2 * float64(g.m) / float64(g.n)
}

// SortAdjacency brings every adjacency list into ascending order by
// folding the overlay into the arena (Compact's canonical layout is fully
// sorted). Generators call it once after construction so that iteration
// order — and therefore every seeded experiment — is deterministic
// regardless of construction order.
func (g *Graph) SortAdjacency() { g.Compact() }

// ---- store operations ----

// base returns v's base span (including tombstoned entries).
func (s *store) base(v VertexID) []VertexID {
	sp := s.spans[v]
	if sp.n == 0 {
		return nil
	}
	return s.arena[sp.off : sp.off+uint32(sp.n)]
}

// overlayOf returns v's overlay, or nil when v is clean. The pointer is
// invalidated by the next overlay mutation (the dense table may move);
// use it immediately.
func (s *store) overlayOf(v VertexID) *overlay {
	if s.ovIdx == nil {
		return nil
	}
	i := s.ovIdx[v]
	if i < 0 {
		return nil
	}
	return &s.ovTab[i]
}

func (s *store) ensureOverlay(v VertexID) *overlay {
	if s.ovIdx == nil {
		s.ovIdx = make([]int32, len(s.spans))
		for i := range s.ovIdx {
			s.ovIdx[i] = -1
		}
	}
	if i := s.ovIdx[v]; i >= 0 {
		return &s.ovTab[i]
	}
	s.ovIdx[v] = int32(len(s.ovTab))
	s.ovTab = append(s.ovTab, overlay{v: v})
	return &s.ovTab[len(s.ovTab)-1]
}

// dropIfEmpty retires v's overlay when both delta lists emptied, so a
// vertex whose mutations cancelled out returns to the zero-cost clean
// path. The table entry is swap-deleted; table order never influences
// behaviour (iteration and encoding always go slot-ascending).
func (s *store) dropIfEmpty(v VertexID, o *overlay) {
	if len(o.adds) != 0 {
		return
	}
	i := s.ovIdx[v]
	last := len(s.ovTab) - 1
	if int(i) != last {
		s.ovTab[i] = s.ovTab[last]
		s.ovIdx[s.ovTab[i].v] = i
	}
	s.ovTab = s.ovTab[:last]
	s.ovIdx[v] = -1
}

// degree returns v's live degree in this direction.
func (s *store) degree(v VertexID) int {
	d := int(s.spans[v].n)
	if o := s.overlayOf(v); o != nil {
		d += len(o.adds)
	}
	return d
}

// has reports whether w is a live neighbour of v: binary search over the
// sorted base span, then a linear scan of the bounded overlay adds.
func (s *store) has(v, w VertexID) bool {
	if base := s.base(v); containsSorted(base, w) {
		return true
	}
	if o := s.overlayOf(v); o != nil {
		for _, x := range o.adds {
			if x == w {
				return true
			}
		}
	}
	return false
}

// add inserts w into v's adjacency. The caller has established that w is
// not currently a neighbour of v.
func (s *store) add(v, w VertexID) {
	o := s.ensureOverlay(v)
	o.adds = append(o.adds, w)
	s.ovEnts++
}

// del removes w from v's adjacency. The caller has established that w is a
// neighbour of v. Overlay adds are removed in order; base entries splice
// out of the span in place (the span stays sorted, its freed tail slot
// becomes garbage) — O(degree) like the slice-of-slices layout's removal,
// but leaving the read path merge-free.
func (s *store) del(v, w VertexID) {
	if o := s.overlayOf(v); o != nil {
		for i, x := range o.adds {
			if x == w {
				o.adds = append(o.adds[:i], o.adds[i+1:]...)
				s.ovEnts--
				s.dropIfEmpty(v, o)
				return
			}
		}
	}
	sp := s.spans[v]
	base := s.arena[sp.off : sp.off+uint32(sp.n)]
	i := sort.Search(len(base), func(i int) bool { return base[i] >= w })
	copy(base[i:], base[i+1:])
	s.spans[v].n--
	s.garbage++
}

// clearVertex empties v's adjacency: the base span becomes arena garbage
// and the overlay is discarded.
func (s *store) clearVertex(v VertexID) {
	if o := s.overlayOf(v); o != nil {
		s.ovEnts -= len(o.adds)
		o.adds = nil
		s.dropIfEmpty(v, o)
	}
	s.garbage += int(s.spans[v].n)
	s.spans[v] = span{}
}

// neighbors materialises v's live adjacency: zero-copy for clean vertices,
// a fresh slice otherwise.
func (s *store) neighbors(v VertexID) []VertexID {
	o := s.overlayOf(v)
	if o == nil {
		return s.base(v)
	}
	d := s.degree(v)
	if d == 0 {
		return nil
	}
	out := make([]VertexID, 0, d)
	for c := s.cursor(v); ; {
		w, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, w)
	}
	return out
}

func (s *store) clone() store {
	c := store{
		arena:   append([]VertexID(nil), s.arena...),
		spans:   append([]span(nil), s.spans...),
		ovIdx:   append([]int32(nil), s.ovIdx...),
		ovTab:   append([]overlay(nil), s.ovTab...),
		ovEnts:  s.ovEnts,
		garbage: s.garbage,
	}
	for i := range c.ovTab {
		c.ovTab[i].adds = append([]VertexID(nil), c.ovTab[i].adds...)
	}
	return c
}

// ---- invariants ----

// CheckInvariants validates internal consistency (degree symmetry, edge
// counts, liveness, arena/overlay bookkeeping) and returns a descriptive
// error on the first violation. Tests — and the binary decoder — call it
// after mutation sequences.
func (g *Graph) CheckInvariants() error {
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

// checkStructure validates one store's arena/span/overlay bookkeeping.
func (s *store) checkStructure(slots int, dir string) error {
	if len(s.spans) != slots {
		return fmt.Errorf("%s: spans %d != slots %d", dir, len(s.spans), slots)
	}
	spanEnds := 0
	occupied := make([]span, 0, len(s.spans))
	for i, sp := range s.spans {
		if sp.n < 0 || uint64(sp.off)+uint64(sp.n) > uint64(len(s.arena)) {
			return fmt.Errorf("%s: slot %d span [%d,+%d) exceeds arena %d", dir, i, sp.off, sp.n, len(s.arena))
		}
		spanEnds += int(sp.n)
		base := s.arena[sp.off : sp.off+uint32(sp.n)]
		for j := 1; j < len(base); j++ {
			if base[j] <= base[j-1] {
				return fmt.Errorf("%s: slot %d base span not strictly ascending at %d", dir, i, j)
			}
		}
		if sp.n > 0 {
			occupied = append(occupied, sp)
		}
	}
	if spanEnds+s.garbage != len(s.arena) {
		return fmt.Errorf("%s: span ends %d + garbage %d != arena %d", dir, spanEnds, s.garbage, len(s.arena))
	}
	// Non-empty spans must be pairwise disjoint: the encoder only ever
	// produces disjoint spans, and an aliased pair would let one vertex's
	// in-place splice corrupt another's adjacency. (The arena-accounting
	// identity above cannot catch aliasing on its own — double-counted
	// overlap can be balanced by unreferenced filler.)
	sort.Slice(occupied, func(i, j int) bool { return occupied[i].off < occupied[j].off })
	for i := 1; i < len(occupied); i++ {
		prev := occupied[i-1]
		if uint64(prev.off)+uint64(prev.n) > uint64(occupied[i].off) {
			return fmt.Errorf("%s: base spans [%d,+%d) and [%d,+%d) overlap", dir,
				prev.off, prev.n, occupied[i].off, occupied[i].n)
		}
	}
	if s.ovIdx != nil && len(s.ovIdx) != slots {
		return fmt.Errorf("%s: overlay index %d != slots %d", dir, len(s.ovIdx), slots)
	}
	indexed := 0
	for i := 0; i < slots; i++ {
		o := s.overlayOf(VertexID(i))
		if o == nil {
			continue
		}
		indexed++
		if o.v != VertexID(i) {
			return fmt.Errorf("%s: slot %d overlay backref says %d", dir, i, o.v)
		}
		if len(o.adds) == 0 {
			return fmt.Errorf("%s: slot %d has an empty overlay", dir, i)
		}
		base := s.base(VertexID(i))
		seen := make(map[VertexID]bool, len(o.adds))
		for _, w := range o.adds {
			if seen[w] {
				return fmt.Errorf("%s: slot %d overlay add %d duplicated", dir, i, w)
			}
			seen[w] = true
			if containsSorted(base, w) {
				return fmt.Errorf("%s: slot %d overlay add %d shadows a base entry", dir, i, w)
			}
		}
	}
	if indexed != len(s.ovTab) {
		return fmt.Errorf("%s: %d indexed overlays but table holds %d", dir, indexed, len(s.ovTab))
	}
	ents := 0
	for i := range s.ovTab {
		ents += len(s.ovTab[i].adds)
	}
	if ents != s.ovEnts {
		return fmt.Errorf("%s: overlay entries %d != counter %d", dir, ents, s.ovEnts)
	}
	return nil
}

// ShardRange returns the half-open slot range [lo, hi) owned by shard i of
// n when the table has the given number of slots: contiguous ceil(slots/n)
// blocks, with trailing shards clamped (possibly empty). Both the BSP
// engine's workers and the core heuristic's parallel sweep divide the
// vertex table with it, so the two parallel paths can never disagree on
// slot ownership.
func ShardRange(i, n, slots int) (lo, hi int) {
	per := (slots + n - 1) / n
	lo = i * per
	if lo > slots {
		lo = slots
	}
	hi = lo + per
	if hi > slots {
		hi = slots
	}
	return lo, hi
}

// ---- sorted-slice helpers ----

func containsSorted(list []VertexID, id VertexID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	return i < len(list) && list[i] == id
}

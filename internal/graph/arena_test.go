package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Tests for the CSR-arena storage layer itself: cursor iteration against
// the materialised views, compaction triggers and canonical layout, and
// exact (byte-identical) codec round-trips of mid-overlay state.

// cursorIDs drains a cursor via Next.
func cursorIDs(c Cursor) []VertexID {
	var out []VertexID
	for {
		w, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, w)
	}
}

// chunkIDs drains a cursor via NextChunk.
func chunkIDs(c Cursor) []VertexID {
	var out []VertexID
	for {
		chunk := c.NextChunk()
		if chunk == nil {
			return out
		}
		out = append(out, chunk...)
	}
}

func sameIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCursorMatchesNeighborsAcrossMutations(t *testing.T) {
	g := buildChurnedGraph(false)
	check := func(stage string) {
		t.Helper()
		g.ForEachVertex(func(v VertexID) {
			want := g.Neighbors(v)
			if got := cursorIDs(g.NeighborCursor(v)); !sameIDs(got, want) {
				t.Fatalf("%s: vertex %d: Next yields %v, Neighbors %v", stage, v, got, want)
			}
			if got := chunkIDs(g.NeighborCursor(v)); !sameIDs(got, want) {
				t.Fatalf("%s: vertex %d: NextChunk yields %v, Neighbors %v", stage, v, got, want)
			}
			if base, adds := g.AdjacencyChunks(v, false); adds == nil && !sameIDs(base, want) {
				t.Fatalf("%s: vertex %d: clean AdjacencyChunks span %v, Neighbors %v", stage, v, base, want)
			}
			var viaFn []VertexID
			g.ForEachNeighbor(v, func(w VertexID) { viaFn = append(viaFn, w) })
			if !sameIDs(viaFn, want) {
				t.Fatalf("%s: vertex %d: ForEachNeighbor yields %v, Neighbors %v", stage, v, viaFn, want)
			}
		})
	}
	check("overlaid")
	g.Compact()
	check("compacted")
	g.RemoveEdge(0, 5)
	g.RemoveVertex(3)
	v := g.AddVertex()
	g.AddEdge(v, 0)
	check("re-churned")
}

func TestCursorDeadAndEmptyVertices(t *testing.T) {
	g := NewUndirected(2)
	a := g.AddVertex()
	g.RemoveVertex(a)
	if ids := cursorIDs(g.NeighborCursor(a)); len(ids) != 0 {
		t.Fatalf("dead vertex cursor yielded %v", ids)
	}
	if ids := cursorIDs(g.NeighborCursor(999)); len(ids) != 0 {
		t.Fatalf("out-of-range cursor yielded %v", ids)
	}
	b := g.AddVertex()
	if ids := cursorIDs(g.NeighborCursor(b)); len(ids) != 0 {
		t.Fatalf("isolated vertex cursor yielded %v", ids)
	}
}

func TestCompactProducesCanonicalSortedLayout(t *testing.T) {
	g := buildChurnedGraph(false)
	g.Compact()
	if got := g.OverlayMass(); got != 0 {
		t.Fatalf("OverlayMass after Compact = %d", got)
	}
	g.ForEachVertex(func(v VertexID) {
		nbrs := g.Neighbors(v)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] <= nbrs[i-1] {
				t.Fatalf("vertex %d adjacency not ascending after Compact: %v", v, nbrs)
			}
		}
	})
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A second compact is a no-op structurally.
	before := g.MemoryStats()
	g.Compact()
	after := g.MemoryStats()
	if before.ArenaEntries != after.ArenaEntries || after.GarbageEntries != 0 {
		t.Fatalf("second Compact changed arena: %+v vs %+v", before, after)
	}
}

func TestAutoCompactionBoundsOverlay(t *testing.T) {
	g := NewUndirected(0)
	const n = 2000
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	// A long pure-append workload must keep the overlay below the policy
	// bound via automatic compaction, without any explicit Compact call.
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n))
		g.AddEdge(VertexID(i), VertexID((i+7)%n))
	}
	if g.Compactions() == 0 {
		t.Fatal("no automatic compaction over a 4000-edge append workload")
	}
	bound := 2*g.NumEdges()/compactSlackDen + minCompactSlack
	if mass := g.OverlayMass(); mass > bound {
		t.Fatalf("overlay mass %d exceeds policy bound %d", mass, bound)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaybeCompactThreshold(t *testing.T) {
	g := NewUndirected(0)
	for i := 0; i < 10; i++ {
		g.AddVertex()
	}
	g.AddEdge(0, 1)
	if g.MaybeCompact() {
		t.Fatal("MaybeCompact fired below the floor threshold")
	}
	g.Compact() // explicit compaction always folds
	if got := g.OverlayMass(); got != 0 {
		t.Fatalf("OverlayMass after explicit Compact = %d", got)
	}
}

// TestMaybeCompactEagerWindow pins that the quiet-point trigger is
// actually reachable: mutation-time auto-compaction keeps the overlay at
// or below the 1/16 bar, so MaybeCompact folds at the lower 1/64 bar —
// an overlay load between the two must survive mutations untouched and
// then fold on the explicit call.
func TestMaybeCompactEagerWindow(t *testing.T) {
	const n = 40000
	g := NewUndirected(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	g.Compact()
	// Park the overlay between the eager (2m/64 = 1250) and automatic
	// (2m/16 = 5000) thresholds.
	for i := 0; i < 1000; i++ {
		g.AddEdge(VertexID(i), VertexID((i+n/2)%n))
	}
	load := g.OverlayMass()
	if load <= g.eagerCompactThreshold() || load > g.compactThreshold() {
		t.Fatalf("fixture overlay %d not between eager %d and auto %d",
			load, g.eagerCompactThreshold(), g.compactThreshold())
	}
	if !g.MaybeCompact() {
		t.Fatal("MaybeCompact declined an overlay above the eager threshold")
	}
	if g.OverlayMass() != 0 {
		t.Fatalf("OverlayMass after MaybeCompact = %d", g.OverlayMass())
	}
	if g.MaybeCompact() {
		t.Fatal("MaybeCompact fired on an empty overlay")
	}
}

// TestCheckInvariantsRejectsAliasedSpans pins the decode-safety fix: two
// slots aliasing the same arena region balance the arena-accounting
// identity (the double-counted overlap offsets unreferenced filler) and
// satisfy every symmetry check, so only the span-disjointness pass can
// catch them. Mutating such a graph would corrupt the aliased vertex.
func TestCheckInvariantsRejectsAliasedSpans(t *testing.T) {
	g := &Graph{
		alive: []bool{true, true, true, true},
		n:     4,
		m:     4,
	}
	// Slots 0 and 1 both claim arena [0,+2) = {2,3}; slots 2 and 3 hold
	// the symmetric halves; two filler entries go unreferenced.
	g.out.arena = []VertexID{2, 3, 0, 1, 0, 1, 0, 0}
	g.out.spans = []span{{off: 0, n: 2}, {off: 0, n: 2}, {off: 2, n: 2}, {off: 4, n: 2}}
	err := g.CheckInvariants()
	if err == nil {
		t.Fatal("aliased base spans passed CheckInvariants")
	}
	if !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("aliased spans rejected for the wrong reason: %v", err)
	}
	// The same payload must be rejected at decode time.
	buf, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGraph(buf); err == nil {
		t.Fatal("decode accepted a payload with aliased spans")
	}
}

// TestCodecRoundTripMidOverlay pins the determinism acceptance criterion:
// a graph serialized with a non-empty overlay (and arena garbage) decodes
// to identical iteration order, free-list order AND byte-identical
// re-encode — so a daemon checkpointed mid-overlay restores exactly.
func TestCodecRoundTripMidOverlay(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildChurnedGraph(directed)
		g.Compact()
		// Build overlay state on top of the compacted base: splices,
		// appends, a removed vertex (garbage), and a recycled ID.
		g.RemoveEdge(2, 3)
		g.RemoveVertex(9)
		v := g.AddVertex()
		g.AddEdge(v, 0)
		g.AddEdge(v, 5)
		g.AddEdge(1, 8)
		if g.OverlayMass() == 0 {
			t.Fatal("fixture has no overlay — test would be vacuous")
		}

		a, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeGraph(a)
		if err != nil {
			t.Fatalf("directed=%v: decode mid-overlay: %v", directed, err)
		}
		b, err := dec.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("directed=%v: mid-overlay re-encode not byte-identical (%d vs %d bytes)", directed, len(a), len(b))
		}
		// Iteration order must survive exactly.
		g.ForEachVertex(func(u VertexID) {
			if !sameIDs(g.Neighbors(u), dec.Neighbors(u)) {
				t.Fatalf("directed=%v: vertex %d order diverged: %v vs %v", directed, u, g.Neighbors(u), dec.Neighbors(u))
			}
		})
		// Overlay bookkeeping — and therefore future compaction points —
		// must survive too.
		if g.OverlayMass() != dec.OverlayMass() {
			t.Fatalf("directed=%v: overlay mass %d vs %d", directed, g.OverlayMass(), dec.OverlayMass())
		}
		// Both must behave identically under further mutations.
		gv, dv := g.AddVertex(), dec.AddVertex()
		if gv != dv {
			t.Fatalf("directed=%v: free list diverged: next ID %d vs %d", directed, gv, dv)
		}
	}
}

func TestHasEdgeOnHub(t *testing.T) {
	// A star graph: membership tests on the hub must agree with the
	// model regardless of where the probe lands (binary search over the
	// sorted base plus linear overlay scan).
	g := NewUndirected(0)
	hub := g.AddVertex()
	const leaves = 500
	for i := 0; i < leaves; i++ {
		leaf := g.AddVertex()
		if !g.AddEdge(hub, leaf) {
			t.Fatalf("AddEdge(hub, %d) failed", leaf)
		}
	}
	g.Compact()
	// Mix in post-compaction churn so both base and overlay paths run.
	extra := g.AddVertex()
	g.AddEdge(hub, extra)
	g.RemoveEdge(hub, 3)
	for i := 1; i <= leaves; i++ {
		want := i != 3
		if got := g.HasEdge(hub, VertexID(i)); got != want {
			t.Fatalf("HasEdge(hub,%d) = %v, want %v", i, got, want)
		}
		if got := g.HasEdge(VertexID(i), hub); got != want {
			t.Fatalf("HasEdge(%d,hub) = %v, want %v", i, got, want)
		}
	}
	if !g.HasEdge(hub, extra) {
		t.Fatal("overlay edge invisible to HasEdge")
	}
	if g.HasEdge(hub, hub) || g.HasEdge(hub, VertexID(leaves+100)) {
		t.Fatal("phantom edge reported")
	}
}

func TestMemoryStatsAccounting(t *testing.T) {
	g := buildChurnedGraph(false)
	st := g.MemoryStats()
	if st.ArenaEntries != st.GarbageEntries+liveSpanEnds(g) {
		t.Fatalf("arena %d != garbage %d + live span ends %d", st.ArenaEntries, st.GarbageEntries, liveSpanEnds(g))
	}
	if st.Bytes <= 0 {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	g.Compact()
	st = g.MemoryStats()
	if st.GarbageEntries != 0 || st.OverlayAdds != 0 || st.DirtyVertices != 0 {
		t.Fatalf("post-compact stats not clean: %+v", st)
	}
	if st.ArenaEntries != 2*g.NumEdges() {
		t.Fatalf("post-compact arena %d != 2m %d", st.ArenaEntries, 2*g.NumEdges())
	}
}

// liveSpanEnds sums base-span lengths over all slots (the non-garbage
// arena portion).
func liveSpanEnds(g *Graph) int {
	total := 0
	for _, sp := range g.out.spans {
		total += int(sp.n)
	}
	return total
}

package graph

import "slices"

// This file implements arena compaction: folding the mutation overlay
// (per-vertex appends and tombstones) and the arena garbage left by
// removed vertices back into a fresh, fully sorted CSR arena.
//
// Compaction runs automatically from the mutating operations once the
// overlay mass crosses compactThreshold — a fixed fraction of the live
// edge ends — which makes its cost amortised O(1) per mutation and, more
// importantly, makes compaction points a pure function of the mutation
// history: a run restored from a checkpoint taken mid-overlay compacts at
// exactly the same future points as the uninterrupted run, preserving the
// determinism contract of internal/snapshot. The daemon additionally
// calls MaybeCompact between coalescing ticks so a long-idle process
// folds its last burst eagerly. That call is a function of the same
// history (the overlay mass at a tick boundary), so runs still replay
// byte-identically, but it is not behaviourally neutral: compaction
// reorders a dirty vertex's neighbours from base-then-adds to ascending,
// and the heat-weighted scorer sums float64 votes in that order, so with
// WorkloadWeight > 0 a compaction point can flip a near-tie. The integer
// scorer's counts are order-independent and never change.
//
// The rebuild itself is proportional to the overlay, not to a per-vertex
// pass over the arena: the new arena's size comes from the store's own
// counters, runs of clean vertices whose spans are contiguous move with
// one copy each, and only dirty vertices merge their adds.

// compactThreshold returns the overlay mass (adds + arena garbage, in
// entries) beyond which the next mutation compacts.
func (g *Graph) compactThreshold() int {
	t := 2 * g.m / compactSlackDen
	if t < minCompactSlack {
		t = minCompactSlack
	}
	return t
}

// eagerCompactThreshold is MaybeCompact's lower bar. It must be below
// compactThreshold to be reachable at all: automatic compaction keeps
// the overlay at or below compactThreshold at every quiescent point.
func (g *Graph) eagerCompactThreshold() int {
	t := 2 * g.m / eagerCompactSlackDen
	if t < minCompactSlack {
		t = minCompactSlack
	}
	return t
}

// overlayLoad returns the current overlay mass in entries.
func (g *Graph) overlayLoad() int {
	return g.out.ovEnts + g.out.garbage + g.in.ovEnts + g.in.garbage
}

// OverlayMass returns the number of adjacency entries currently held
// outside the base arena (overlay adds and tombstones) plus retired arena
// entries awaiting compaction. Zero after Compact.
func (g *Graph) OverlayMass() int { return g.overlayLoad() }

// Compactions returns how many arena rebuilds the graph has performed
// (automatic and explicit). Informational; not part of serialized state.
func (g *Graph) Compactions() uint64 { return g.compactions }

// maybeCompact is the automatic trigger invoked by mutating operations.
func (g *Graph) maybeCompact() {
	if g.overlayLoad() > g.compactThreshold() {
		g.Compact()
	}
}

// MaybeCompact folds the overlay into the arena if its mass exceeds the
// eager (quiet-point) threshold — a quarter of the automatic mutation-
// time bar — reporting whether it did. Long-running callers with natural
// quiet points (the daemon between ticks) use it to fold pending churn
// off the ingest and query paths instead of waiting for the next
// mutation burst to trip the automatic trigger mid-batch.
func (g *Graph) MaybeCompact() bool {
	if g.overlayLoad() <= g.eagerCompactThreshold() {
		return false
	}
	g.Compact()
	return true
}

// Compact rebuilds the adjacency arena: every live vertex's base span and
// overlay merge into a fresh, contiguous, sorted span; tombstones and
// garbage vanish. Neighbor slices and cursors obtained before Compact are
// invalidated. The resulting layout is canonical: it depends only on the
// edge set, not on the mutation order that produced it.
func (g *Graph) Compact() {
	g.out.compact()
	if g.directed {
		g.in.compact()
	}
	g.compactions++
}

// compact rebuilds the store's arena in slot order. The layout is the
// canonical one: each slot's span starts where the previous slot's ended
// (zero-length spans included), and a dirty vertex's span is the
// ascending merge of its base and adds.
func (s *store) compact() {
	// Live entries are the arena minus its garbage, plus the overlay
	// adds — the accounting CheckInvariants verifies.
	arena := make([]VertexID, len(s.arena)-s.garbage+s.ovEnts)
	var pos uint32 // end of the new arena so far, including the pending run
	// runLo/runHi delimit the pending run of clean spans in the old
	// arena; it lands in the new arena just below pos.
	var runLo, runHi uint32
	for i := range s.spans {
		sp := &s.spans[i]
		o := s.overlayOf(VertexID(i))
		if o == nil {
			if sp.n > 0 && sp.off != runHi {
				copy(arena[pos-(runHi-runLo):pos], s.arena[runLo:runHi])
				runLo, runHi = sp.off, sp.off
			}
			runHi += uint32(sp.n)
			sp.off = pos
			pos += uint32(sp.n)
			continue
		}
		copy(arena[pos-(runHi-runLo):pos], s.arena[runLo:runHi])
		runLo = runHi
		// The overlay is being discarded, so its adds can sort in place.
		slices.Sort(o.adds)
		n := uint32(sp.n) + uint32(len(o.adds))
		mergeAdjacency(arena[pos:pos+n], s.arena[sp.off:sp.off+uint32(sp.n)], o.adds)
		*sp = span{off: pos, n: int32(n)}
		pos += n
	}
	copy(arena[pos-(runHi-runLo):pos], s.arena[runLo:runHi])
	s.arena = arena
	// Release the overlay structures entirely: a compacted graph carries
	// zero overlay memory until the next mutation re-materialises the
	// per-slot index.
	s.ovIdx = nil
	s.ovTab = nil
	s.ovEnts = 0
	s.garbage = 0
}

// mergeAdjacency writes to dst the ascending merge of base with adds;
// both inputs are ascending and disjoint, and dst holds exactly
// len(base)+len(adds) entries.
func mergeAdjacency(dst, base, adds []VertexID) {
	k, ai := 0, 0
	for _, w := range base {
		for ai < len(adds) && adds[ai] < w {
			dst[k] = adds[ai]
			k++
			ai++
		}
		dst[k] = w
		k++
	}
	copy(dst[k:], adds[ai:])
}

// MemoryStats reports the adjacency storage footprint, the observability
// behind the bytes-per-edge benchmarks and the daemon's /metrics gauges.
type MemoryStats struct {
	// ArenaEntries is the total arena length across directions (live base
	// entries plus garbage), 4 bytes each.
	ArenaEntries int
	// GarbageEntries counts arena entries retired by vertex removals and
	// awaiting compaction.
	GarbageEntries int
	// OverlayAdds counts pending overlay entries (added neighbours not
	// yet folded into the arena).
	OverlayAdds int
	// DirtyVertices counts vertices with a non-empty overlay.
	DirtyVertices int
	// Compactions is the number of arena rebuilds so far.
	Compactions uint64
	// Bytes estimates the resident size of the adjacency structures
	// (arena + spans + dirty bitmaps + overlay lists and map overhead),
	// excluding the alive/free vertex tables shared by any layout.
	Bytes int64
}

// MemoryStats returns the current storage footprint.
func (g *Graph) MemoryStats() MemoryStats {
	st := MemoryStats{Compactions: g.compactions}
	for _, s := range []*store{&g.out, &g.in} {
		st.ArenaEntries += len(s.arena)
		st.GarbageEntries += s.garbage
		st.DirtyVertices += len(s.ovTab)
		st.Bytes += int64(cap(s.arena))*4 + int64(len(s.spans))*8 + int64(cap(s.ovIdx))*4
		for i := range s.ovTab {
			o := &s.ovTab[i]
			st.OverlayAdds += len(o.adds)
			// Table entry header plus its list capacity.
			st.Bytes += 32 + int64(cap(o.adds))*4
		}
	}
	return st
}

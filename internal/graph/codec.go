package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file implements the stable binary serialization of a Graph used by
// the snapshot/restore path (internal/snapshot). The format captures the
// *identity-level* state, not just the topology: slot layout, the alive
// bitmap, the free-list order, the arena spans AND the pending mutation
// overlay all round-trip exactly. Vertex IDs are recycled LIFO, neighbour
// iteration order feeds the deterministic schedulers, and compaction
// points are a function of overlay mass — so a restored daemon must
// reproduce all three byte-for-byte, including a checkpoint taken with a
// non-empty overlay (determinism acceptance criterion).
//
// Layout (all integers little-endian, fixed width):
//
//	u8  directed
//	u32 slots
//	u64 n (live vertices), u64 m (live edges)     — validated on decode
//	slots × u8   alive bitmap (one byte per slot)
//	u32 freeLen, freeLen × i32                    — free list, stack order
//	store (out-adjacency):
//	  u64 arenaLen, arenaLen × i32                — arena, verbatim
//	  slots × (u32 off, u32 len)                  — base spans
//	  u64 garbage                                 — == arenaLen − Σ len
//	  u32 dirtyCount                              — overlays, slot-ascending
//	  dirtyCount × (u32 slot, u32 nAdds, nAdds × i32)
//	[directed only] store (in-adjacency)
//
// The format is versioned by the enclosing snapshot container, which also
// carries a CRC; the decoder still bounds every length and finishes with
// a full CheckInvariants pass, so a corrupt or adversarial payload errors
// instead of panicking or allocating unbounded memory: lengths are
// checked against the remaining bytes before allocation.

// maxCodecSlots bounds the vertex-table size AppendBinary/DecodeGraph
// accept, mirroring MaxReadVertexID for the text parsers.
const maxCodecSlots = MaxReadVertexID + 1

// maxCodecArena bounds a single direction's arena length, so a decoded
// arena always fits the u32 span offsets.
const maxCodecArena = 1 << 31

// BinarySize returns the exact number of bytes AppendBinary appends.
func (g *Graph) BinarySize() int {
	n := 1 + 4 + 8 + 8 + len(g.alive) + 4 + 4*len(g.free) + g.out.binarySize()
	if g.directed {
		n += g.in.binarySize()
	}
	return n
}

func (s *store) binarySize() int {
	return 8 + 4*len(s.arena) + 8*len(s.spans) + 8 + 4 + 8*len(s.ovTab) + 4*s.ovEnts
}

// AppendBinary appends the graph in the stable binary snapshot format to
// b (encoding.BinaryAppender). Encoding does not canonicalise: the arena
// (including garbage), spans and overlay serialize verbatim, so
// encode∘decode∘encode is byte-identical and a restored graph compacts
// at exactly the same future points as the original.
func (g *Graph) AppendBinary(b []byte) ([]byte, error) {
	if len(g.out.spans) > maxCodecSlots {
		return b, fmt.Errorf("graph: %d slots exceed the serializable maximum %d", len(g.out.spans), maxCodecSlots)
	}
	// Mirror every decode-side bound at encode time: a checkpoint that
	// writes cleanly must restore cleanly, never fail only on read.
	if len(g.out.arena) > maxCodecArena || len(g.in.arena) > maxCodecArena {
		return b, fmt.Errorf("graph: arena exceeds the serializable maximum %d entries", maxCodecArena)
	}
	b = slices.Grow(b, g.BinarySize())
	dir := byte(0)
	if g.directed {
		dir = 1
	}
	b = append(b, dir)
	b = le.AppendUint32(b, uint32(len(g.out.spans)))
	b = le.AppendUint64(b, uint64(g.n))
	b = le.AppendUint64(b, uint64(g.m))
	for _, a := range g.alive {
		if a {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = le.AppendUint32(b, uint32(len(g.free)))
	b = appendIDs(b, g.free)
	b = g.out.appendBinary(b)
	if g.directed {
		b = g.in.appendBinary(b)
	}
	return b, nil
}

func (s *store) appendBinary(b []byte) []byte {
	b = le.AppendUint64(b, uint64(len(s.arena)))
	b = appendIDs(b, s.arena)
	for _, sp := range s.spans {
		b = le.AppendUint32(b, sp.off)
		b = le.AppendUint32(b, uint32(sp.n))
	}
	b = le.AppendUint64(b, uint64(s.garbage))
	b = le.AppendUint32(b, uint32(len(s.ovTab)))
	// Slot-ascending overlay order keeps the encoding canonical (the
	// dense table's internal order must never leak into the bytes).
	for i := range s.spans {
		if o := s.overlayOf(VertexID(i)); o != nil {
			b = le.AppendUint32(b, uint32(i))
			b = le.AppendUint32(b, uint32(len(o.adds)))
			b = appendIDs(b, o.adds)
		}
	}
	return b
}

func appendIDs(b []byte, ids []VertexID) []byte {
	for _, v := range ids {
		b = le.AppendUint32(b, uint32(v))
	}
	return b
}

var le = binary.LittleEndian

// DecodeGraph decodes a graph previously encoded by AppendBinary from the
// front of data (bytes after the payload are ignored). The full
// invariant suite (degree symmetry, counts, span/overlay bookkeeping) is
// validated; a mismatch or out-of-range ID yields an error, never a
// panic or unbounded allocation.
func DecodeGraph(data []byte) (*Graph, error) {
	g, err := decodeGraph(data)
	if err != nil {
		return nil, fmt.Errorf("graph decode: %w", err)
	}
	if err := g.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("graph decode: inconsistent payload: %w", err)
	}
	return g, nil
}

// decodeGraph parses the payload with every range and length check but
// without the closing CheckInvariants pass.
func decodeGraph(data []byte) (*Graph, error) {
	p := &unread{b: data}
	hdr := p.next(1+4+8+8, "header")
	if p.err != nil {
		return nil, p.err
	}
	dir, slots, n, m := hdr[0], le.Uint32(hdr[1:]), le.Uint64(hdr[5:]), le.Uint64(hdr[13:])
	if dir > 1 {
		return nil, fmt.Errorf("invalid directed flag %d", dir)
	}
	if int(slots) > maxCodecSlots {
		return nil, fmt.Errorf("%d slots exceed the supported maximum %d", slots, maxCodecSlots)
	}
	bitmap := p.next(uint64(slots), "alive bitmap")
	freeLen := p.u32("free list length")
	if p.err != nil {
		return nil, p.err
	}
	g := &Graph{directed: dir == 1, alive: make([]bool, slots), n: int(n), m: int(m)}
	live := 0
	for i, b := range bitmap {
		if b > 1 {
			return nil, fmt.Errorf("invalid alive byte %d at slot %d", b, i)
		}
		g.alive[i] = b == 1
		live += int(b)
	}
	if uint64(live) != n {
		return nil, fmt.Errorf("alive bitmap has %d live vertices, header says %d", live, n)
	}
	if int(freeLen)+live != int(slots) {
		return nil, fmt.Errorf("free %d + live %d != slots %d", freeLen, live, slots)
	}
	if g.free = p.ids(uint64(freeLen), slots, "free list"); p.err != nil {
		return nil, p.err
	}
	for _, id := range g.free {
		if g.alive[id] {
			return nil, fmt.Errorf("free list contains live vertex %d", id)
		}
	}
	if err := g.out.decode(p, slots); err != nil {
		return nil, fmt.Errorf("out store: %w", err)
	}
	if g.directed {
		if err := g.in.decode(p, slots); err != nil {
			return nil, fmt.Errorf("in store: %w", err)
		}
	}
	return g, nil
}

func (s *store) decode(p *unread, slots uint32) error {
	arenaLen := p.u64("arena length")
	if arenaLen > maxCodecArena {
		return fmt.Errorf("arena length %d exceeds the supported maximum %d", arenaLen, maxCodecArena)
	}
	s.arena = p.ids(arenaLen, slots, "arena")
	raw := p.next(8*uint64(slots), "spans")
	garbage := p.u64("garbage counter")
	if p.err != nil {
		return p.err
	}
	s.spans = make([]span, slots)
	spanEnds := uint64(0)
	for i := range s.spans {
		off, length := le.Uint32(raw[8*i:]), le.Uint32(raw[8*i+4:])
		if uint64(off)+uint64(length) > arenaLen || length > uint32(maxCodecSlots) {
			return fmt.Errorf("slot %d span [%d,+%d) exceeds arena %d", i, off, length, arenaLen)
		}
		s.spans[i] = span{off: off, n: int32(length)}
		spanEnds += uint64(length)
	}
	if spanEnds+garbage != arenaLen {
		return fmt.Errorf("span ends %d + garbage %d != arena %d", spanEnds, garbage, arenaLen)
	}
	s.garbage = int(garbage)
	dirtyCount := p.u32("overlay count")
	if dirtyCount > slots {
		return fmt.Errorf("overlay count %d exceeds slot count %d", dirtyCount, slots)
	}
	prev := int64(-1)
	for i := uint32(0); i < dirtyCount; i++ {
		slot, nAdds := p.u32("overlay slot"), p.u32("overlay length")
		if p.err != nil {
			break
		}
		if int64(slot) <= prev || slot >= slots {
			return fmt.Errorf("overlay slots not ascending (%d after %d)", slot, prev)
		}
		if nAdds == 0 || nAdds > slots {
			return fmt.Errorf("overlay %d holds %d adds, want 1..%d", slot, nAdds, slots)
		}
		prev = int64(slot)
		o := s.ensureOverlay(VertexID(slot))
		o.adds = p.ids(uint64(nAdds), slots, "overlay adds")
		s.ovEnts += len(o.adds)
	}
	return p.err
}

// unread is the not yet decoded tail of an encoded graph. Reads are
// sticky: after the first failure every read returns zeros and err
// keeps the failure.
type unread struct {
	b   []byte
	err error
}

// next consumes n bytes, failing before anything is allocated for them
// when fewer remain.
func (p *unread) next(n uint64, what string) []byte {
	if p.err == nil && n > uint64(len(p.b)) {
		p.err = fmt.Errorf("%s: %d bytes claimed, %d remain", what, n, len(p.b))
	}
	if p.err != nil {
		return nil
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b
}

func (p *unread) u32(what string) uint32 {
	if b := p.next(4, what); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (p *unread) u64(what string) uint64 {
	if b := p.next(8, what); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// ids consumes n vertex IDs, each of which must lie in [0, slots).
func (p *unread) ids(n uint64, slots uint32, what string) []VertexID {
	b := p.next(4*n, what)
	if p.err != nil {
		return nil
	}
	list := make([]VertexID, n)
	for i := range list {
		raw := le.Uint32(b[4*i:])
		if raw >= slots {
			p.err = fmt.Errorf("%s entry %d: vertex id %d out of range [0,%d)", what, i, int32(raw), slots)
			return nil
		}
		list[i] = VertexID(raw)
	}
	return list
}

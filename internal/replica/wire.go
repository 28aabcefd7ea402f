package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file decodes the two things the replica reads from its primary:
// watch lines and bootstrap pages. A strict byte scanner recognises the
// canonical bytes the primary writes (encoding/json's output: compact for
// a watch line, two-space indented for a page) and decodes them straight
// into the []partition.Change that Frozen.Apply consumes. Anything else —
// another key order, extra whitespace, escapes, unknown fields — goes to
// json.Unmarshal, so the replica accepts whatever JSON the documented
// schema allows. The scanner accepts only inputs json.Unmarshal accepts
// too, with the same result; FuzzWatchLine and FuzzPageBody check that.
// The decoders keep no state or buffers between calls. Both refuse a
// partition outside [None, partition.MaxK) before converting it, so a
// large number never wraps into a valid ID; the table's own k is
// checked where the changes are applied (checkChanges).

// watchLine is one decoded line of the primary's GET /v1/watch feed: an
// epoch diff, or a resync instruction.
type watchLine struct {
	resync  bool
	epoch   uint64
	changes []partition.Change
}

// watchEvent is the general-JSON form of a watch line (the fallback).
type watchEvent struct {
	Resync  bool   `json:"resync"`
	Epoch   uint64 `json:"epoch"`
	Changes []struct {
		Vertex int64 `json:"vertex"`
		From   int64 `json:"from"`
		To     int64 `json:"to"`
	} `json:"changes"`
}

// pageHeader is the part of a bootstrap page the replica keeps besides
// its placements.
type pageHeader struct {
	epoch      uint64
	instance   string
	k          int
	nextCursor int64
}

// pageResponse is the general-JSON form of the primary's paged POST
// /v1/placements reply (server.PageResponse; the fallback). The replica
// deliberately declares its own wire structs: the JSON documented in
// docs/API.md is the protocol contract, not shared Go types.
type pageResponse struct {
	Epoch      uint64 `json:"epoch"`
	Instance   string `json:"instance"`
	K          int    `json:"k"`
	Slots      int64  `json:"slots"`
	NextCursor int64  `json:"next_cursor"`
	Placements []struct {
		Vertex    int64 `json:"vertex"`
		Partition int64 `json:"partition"`
	} `json:"placements"`
}

// decodeWatchLine decodes one watch line (without its newline). fast
// reports whether the canonical scanner handled it.
func decodeWatchLine(line []byte) (ev watchLine, fast bool, err error) {
	if ev, ok := scanWatchLine(line); ok {
		return ev, true, nil
	}
	ev, err = unmarshalWatchLine(line)
	return ev, false, err
}

// decodePage decodes one bootstrap page body, appending its placements
// to entries. fast reports whether the canonical scanner handled it.
func decodePage(body []byte, entries []partition.Change) (h pageHeader, out []partition.Change, fast bool, err error) {
	if h, out, ok := scanPage(body, entries); ok {
		return h, out, true, nil
	}
	h, out, err = unmarshalPage(body, entries)
	return h, out, false, err
}

func unmarshalWatchLine(line []byte) (watchLine, error) {
	var ev watchEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		return watchLine{}, err
	}
	cs := make([]partition.Change, 0, len(ev.Changes))
	for _, c := range ev.Changes {
		if !placeable(c.To) {
			return watchLine{}, fmt.Errorf("vertex %d: partition %d: %w", c.Vertex, c.To, errPartitionRange)
		}
		cs = append(cs, partition.Change{Vertex: graph.VertexID(c.Vertex), To: partition.ID(c.To)})
	}
	return watchLine{resync: ev.Resync, epoch: ev.Epoch, changes: cs}, nil
}

func unmarshalPage(body []byte, entries []partition.Change) (pageHeader, []partition.Change, error) {
	var page pageResponse
	if err := json.Unmarshal(body, &page); err != nil {
		return pageHeader{}, entries, err
	}
	for _, p := range page.Placements {
		if !placeable(p.Partition) {
			return pageHeader{}, entries, fmt.Errorf("vertex %d: partition %d: %w", p.Vertex, p.Partition, errPartitionRange)
		}
		entries = append(entries, partition.Change{Vertex: graph.VertexID(p.Vertex), To: partition.ID(p.Partition)})
	}
	return pageHeader{epoch: page.Epoch, instance: page.Instance, k: page.K, nextCursor: page.NextCursor}, entries, nil
}

// scanWatchLine decodes the canonical line
// {["resync":true,]"epoch":N[,"changes":[{"vertex":V,"from":F,"to":T},…]]}.
func scanWatchLine(line []byte) (ev watchLine, ok bool) {
	s := scanner{b: line, ok: true}
	s.lit(`{`)
	ev.resync = s.skip(`"resync":true,`)
	s.lit(`"epoch":`)
	ev.epoch = s.uint()
	if s.skip(`,"changes":[`) {
		// One '{' per change: size the slice once.
		ev.changes = make([]partition.Change, 0, bytes.Count(line[s.i:], []byte{'{'}))
		for s.ok && !s.skip(`]`) {
			if len(ev.changes) > 0 {
				s.lit(`,`)
			}
			s.lit(`{"vertex":`)
			v := s.int()
			s.lit(`,"from":`)
			s.int()
			s.lit(`,"to":`)
			to := s.int()
			s.ok = s.ok && placeable(to)
			s.lit(`}`)
			ev.changes = append(ev.changes, partition.Change{Vertex: graph.VertexID(v), To: partition.ID(to)})
		}
	}
	s.lit(`}`)
	return ev, s.end()
}

// scanPage decodes the canonical page: the PageResponse fields in
// declaration order, two-space indented, with a trailing newline. On
// failure entries is returned unchanged in length.
func scanPage(body []byte, entries []partition.Change) (h pageHeader, out []partition.Change, ok bool) {
	s := scanner{b: body, ok: true}
	s.lit("{\n  \"epoch\": ")
	h.epoch = s.uint()
	s.lit(",\n  \"instance\": ")
	h.instance = s.str()
	s.lit(",\n  \"k\": ")
	k := s.int()
	h.k = int(k)
	s.ok = s.ok && int64(h.k) == k
	s.lit(",\n  \"slots\": ")
	s.int()
	s.lit(",\n  \"next_cursor\": ")
	h.nextCursor = s.int()
	s.lit(",\n  \"placements\": [")
	// One '{' per placement after the header's: size the slice once.
	out = slices.Grow(entries, bytes.Count(body[s.i:], []byte{'{'}))
	if !s.skip(`]`) {
		for s.ok {
			s.lit("\n    {\n      \"vertex\": ")
			v := s.int()
			s.lit(",\n      \"partition\": ")
			p := s.int()
			s.ok = s.ok && placeable(p)
			s.lit("\n    }")
			out = append(out, partition.Change{Vertex: graph.VertexID(v), To: partition.ID(p)})
			if !s.skip(`,`) {
				break
			}
		}
		s.lit("\n  ]")
	}
	s.lit("\n}")
	s.skip("\n")
	if !s.end() {
		return pageHeader{}, entries, false
	}
	return h, out, true
}

// errPartitionRange refuses a partition its table cannot hold.
var errPartitionRange = errors.New("partition out of range")

// placeable reports whether a decoded partition fits a placement table
// at all: None, or below partition.MaxK.
func placeable(p int64) bool { return p >= int64(partition.None) && p < partition.MaxK }

// checkChanges refuses a change whose partition is neither None nor
// below k, before it reaches Frozen.Apply.
func checkChanges(cs []partition.Change, k int) error {
	for _, c := range cs {
		if c.To < partition.None || int(c.To) >= k {
			return fmt.Errorf("vertex %d: partition %d (k=%d): %w", c.Vertex, c.To, k, errPartitionRange)
		}
	}
	return nil
}

// scanner is a strict cursor over canonical encoding/json output. A
// method that meets anything unexpected clears ok and every later call
// is a no-op, so callers check ok (or end) once.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes want, which must come next.
func (s *scanner) lit(want string) {
	if !s.skip(want) {
		s.ok = false
	}
}

// skip consumes want if it comes next and reports whether it did.
func (s *scanner) skip(want string) bool {
	if s.ok && len(s.b)-s.i >= len(want) && string(s.b[s.i:s.i+len(want)]) == want {
		s.i += len(want)
		return true
	}
	return false
}

// end reports whether every byte was consumed without a mismatch.
func (s *scanner) end() bool { return s.ok && s.i == len(s.b) }

// uint consumes a JSON number that is a uint64: digits, no sign, no
// leading zero, no overflow.
func (s *scanner) uint() uint64 {
	if !s.ok {
		return 0
	}
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		v = v*10 + uint64(s.b[s.i]-'0')
	}
	// Up to 19 digits cannot overflow; 20 digits overflow exactly when
	// they compare above MaxUint64's (same length, so lexically).
	switch n := s.i - start; {
	case n == 0, n > 1 && s.b[start] == '0', n > 20,
		n == 20 && string(s.b[start:s.i]) > "18446744073709551615":
		s.ok = false
		return 0
	}
	return v
}

// int consumes a JSON number that is an int64.
func (s *scanner) int() int64 {
	neg := s.skip(`-`)
	u := s.uint()
	switch {
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.ok = false
	return 0
}

// str consumes a JSON string without escapes or control bytes whose
// contents are valid UTF-8 — exactly the strings that decode to their
// raw bytes. Any other string is left to the fallback.
func (s *scanner) str() string {
	s.lit(`"`)
	if !s.ok {
		return ""
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		s.ok = false
		return ""
	}
	raw := s.b[s.i : s.i+n]
	for _, c := range raw {
		if c < 0x20 || c == '\\' {
			s.ok = false
			return ""
		}
	}
	if !utf8.Valid(raw) {
		s.ok = false
		return ""
	}
	s.i += n + 1
	return string(raw)
}

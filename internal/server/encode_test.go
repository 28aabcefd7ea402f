package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
)

// Byte-identity pins for the hand-written encoders in encode.go: for
// every input, the bytes must equal what encoding/json writes for the
// same value, since clients (and the replica's fast-path scanner) rely
// on the wire bytes staying exactly as they were.

// extremeInt64 returns values from the corners of the int64 range as
// often as ordinary small ones.
func extremeInt64(rng *rand.Rand) int64 {
	switch rng.IntN(6) {
	case 0:
		return math.MinInt64 + rng.Int64N(3)
	case 1:
		return math.MaxInt64 - rng.Int64N(3)
	case 2:
		return -1 - rng.Int64N(10)
	case 3:
		return rng.Int64()
	default:
		return rng.Int64N(1 << 20)
	}
}

func randomEpoch(rng *rand.Rand) uint64 {
	switch rng.IntN(4) {
	case 0:
		return math.MaxUint64 - rng.Uint64N(3) // above MaxInt64
	case 1:
		return uint64(math.MaxInt64) + rng.Uint64N(3)
	case 2:
		return rng.Uint64()
	default:
		return rng.Uint64N(1000)
	}
}

func randomWatchEvent(rng *rand.Rand) watchEvent {
	ev := watchEvent{Resync: rng.IntN(4) == 0, Epoch: randomEpoch(rng)}
	switch rng.IntN(5) {
	case 0: // nil changes
	case 1:
		ev.Changes = []PlacementChange{}
	default:
		n := rng.IntN(40)
		if rng.IntN(8) == 0 {
			n = 600 + rng.IntN(400) // spans several wireChunk writes
		}
		for range n {
			ev.Changes = append(ev.Changes, PlacementChange{
				Vertex: extremeInt64(rng), From: extremeInt64(rng), To: extremeInt64(rng),
			})
		}
	}
	return ev
}

// countingWriter records its writes, to check the chunk bound.
type countingWriter struct {
	bytes.Buffer
	writes, largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

func TestWatchEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 19))
	events := []watchEvent{
		{Resync: true, Epoch: 0},
		{Resync: true, Epoch: math.MaxUint64},
		{Epoch: 7},
		{Epoch: 8, Changes: []PlacementChange{}},
		{Epoch: 9, Changes: []PlacementChange{{Vertex: 0, From: -1, To: 0}}},
		{Resync: true, Epoch: 10, Changes: []PlacementChange{{Vertex: math.MaxInt64, From: math.MinInt64, To: -1}}},
	}
	for range 500 {
		events = append(events, randomWatchEvent(rng))
	}
	var got countingWriter
	cw := newChunkWriter(&got)
	for i, ev := range events {
		got.Reset()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ev); err != nil {
			t.Fatal(err)
		}
		if err := cw.watchEvent(ev); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("event %d (%d changes):\n got %.300q\nwant %.300q", i, len(ev.Changes), got.Bytes(), want.Bytes())
		}
		if got.largest > wireChunk+wireSlack || cap(cw.buf) > wireChunk+wireSlack {
			t.Fatalf("event %d: write of %d bytes, buffer cap %d; want both ≤ %d",
				i, got.largest, cap(cw.buf), wireChunk+wireSlack)
		}
	}
}

// referencePage builds the PageResponse the paged POST /v1/placements
// reply encodes, independently of writePage.
func referencePage(instance string, epoch uint64, table *partition.Frozen, cursor, limit int64) PageResponse {
	slots := int64(table.Slots())
	resp := PageResponse{
		Epoch: epoch, Instance: instance, K: table.K(), Slots: slots,
		NextCursor: -1, Placements: []readplane.BatchPlacement{},
	}
	end := slots
	if cursor+limit < slots {
		end = cursor + limit
		resp.NextCursor = end
	}
	table.Scan(int(cursor), int(end), func(v graph.VertexID, p partition.ID) {
		resp.Placements = append(resp.Placements, readplane.BatchPlacement{Vertex: int64(v), Partition: int64(p)})
	})
	return resp
}

func TestPageEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 19))
	instances := []string{"0123456789abcdef", "", `a"b\c`, "<tag>&amp;", "ü \x01", "\xff"}
	for i := range 300 {
		k := 1 + rng.IntN(16)
		slots := rng.IntN(3000)
		changes := make([]partition.Change, 0, slots)
		for v := range slots {
			if rng.IntN(3) > 0 {
				changes = append(changes, partition.Change{Vertex: graph.VertexID(v), To: partition.ID(rng.IntN(k))})
			}
		}
		table := partition.NewFrozen(k).Apply(changes)
		cursor := rng.Int64N(int64(slots) + 50)
		limit := 1 + rng.Int64N(readplane.MaxBatchVertices)
		if rng.IntN(2) == 0 {
			limit = 1 + rng.Int64N(200)
		}
		instance := instances[rng.IntN(len(instances))]
		epoch := randomEpoch(rng)

		want := httptest.NewRecorder()
		readplane.WriteJSON(want, 200, referencePage(instance, epoch, table, cursor, limit))
		var got countingWriter
		var visited []graph.VertexID
		n, err := writePage(&got, instance, epoch, table, cursor, limit, func(v graph.VertexID) {
			visited = append(visited, v)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Body.Bytes()) {
			t.Fatalf("page %d (cursor %d limit %d slots %d):\n got %.400q\nwant %.400q",
				i, cursor, limit, slots, got.Bytes(), want.Body.Bytes())
		}
		if n != len(visited) || n != len(referencePage(instance, epoch, table, cursor, limit).Placements) {
			t.Fatalf("page %d: returned %d, visited %d", i, n, len(visited))
		}
		if got.largest > wireChunk+wireSlack {
			t.Fatalf("page %d: write of %d bytes, want ≤ %d", i, got.largest, wireChunk+wireSlack)
		}
	}
}

// TestPageCursorNearMaxInt64 pins that a cursor whose cursor+limit would
// overflow still answers an empty last page.
func TestPageCursorNearMaxInt64(t *testing.T) {
	table := partition.NewFrozen(2).Apply([]partition.Change{{Vertex: 3, To: 1}})
	var got bytes.Buffer
	n, err := writePage(&got, "i", 5, table, math.MaxInt64, readplane.MaxBatchVertices, func(graph.VertexID) {})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	var page PageResponse
	if err := json.Unmarshal(got.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.NextCursor != -1 || len(page.Placements) != 0 || page.Slots != 4 {
		t.Fatalf("page %+v", page)
	}
}

// BenchmarkWatchEncode measures writing one 2k-change epoch diff as a
// watch line.
func BenchmarkWatchEncode(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 19))
	ev := watchEvent{Epoch: 123456}
	for v := range 2000 {
		ev.Changes = append(ev.Changes, PlacementChange{
			Vertex: int64(v*211 + rng.IntN(200)), From: int64(rng.IntN(8)), To: int64(rng.IntN(8)),
		})
	}
	cw := newChunkWriter(io.Discard)
	b.ReportAllocs()
	for b.Loop() {
		if err := cw.watchEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
}

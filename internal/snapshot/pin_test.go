package snapshot

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// pinnedSnapshot builds a fixed-seed checkpoint that exercises every
// optional part of the format at once: a directed graph section carrying
// a non-empty overlay and arena garbage, a heat accumulator, active-set
// state and a cluster identity.
func pinnedSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	cfg := testConfig(1, true)
	cfg.WorkloadWeight = 4
	rng := rand.New(rand.NewSource(2022))
	g := graph.NewDirected(120)
	for i := 0; i < 120; i++ {
		g.AddVertex()
	}
	for i := 0; i < 480; i++ {
		g.AddEdge(graph.VertexID(rng.Intn(120)), graph.VertexID(rng.Intn(120)))
	}
	g.SortAdjacency()
	p, err := core.New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for tick := 0; tick < 3; tick++ {
		p.FoldHeat(0.8, heatTrace(tick, g.NumSlots()), 16)
		p.Step()
	}
	u := graph.VertexID(11)
	for g.Degree(u) == 0 {
		u++
	}
	p.ApplyBatch(graph.Batch{
		{Kind: graph.MutRemoveVertex, U: 7},
		{Kind: graph.MutAddEdge, U: 3, V: 119},
		{Kind: graph.MutAddEdge, U: 119, V: 5},
		{Kind: graph.MutRemoveEdge, U: u, V: g.Neighbors(u)[0]},
	})
	p.Step()
	if g.OverlayMass() == 0 {
		tb.Fatal("pinned fixture has an empty overlay")
	}
	snap, err := Capture(p, cfg, Meta{Ticks: 4, MutationsIngested: 484, MutationsApplied: 480, CreatedUnix: 1700000000})
	if err != nil {
		tb.Fatal(err)
	}
	if snap.Core.Heat == nil || snap.Core.Active == nil {
		tb.Fatal("pinned fixture lacks heat or active-set state")
	}
	snap.Cluster = &ClusterIdentity{ShardID: 1, NumShards: 3, RoundsCompleted: 77}
	return snap
}

// TestSnapshotBytesPinned pins the on-disk bytes of the v5 fixture: its
// length and the CRC-32 of the body before the trailer, so any change to
// the bytes Write emits fails here. (A CRC-32 over the whole file, which
// ends in its own CRC-32, is the constant residue 0x2144df1c for every
// file and would pin nothing.) The file must also read back and
// re-encode to the same bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	const wantLen, wantCRC = 7467, 0x5d5d7341
	snap := pinnedSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if size := encodedSize(snap); size != int64(buf.Len()) {
		t.Fatalf("encodedSize %d, Write produced %d bytes", size, buf.Len())
	}
	if n, sum := buf.Len(), crc32.ChecksumIEEE(buf.Bytes()[:buf.Len()-4]); n != wantLen || sum != wantCRC {
		t.Fatalf("snapshot bytes moved: %d bytes crc %08x, pinned %d bytes crc %08x", n, sum, wantLen, wantCRC)
	}
	s, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Write(&again, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("pinned snapshot does not re-encode byte-identically")
	}
}

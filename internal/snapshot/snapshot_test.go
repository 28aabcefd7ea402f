package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func testConfig(parallelism int, incremental bool) core.Config {
	cfg := core.DefaultConfig(4, 11)
	cfg.Parallelism = parallelism
	cfg.Incremental = incremental
	cfg.RecordEvery = 0
	return cfg
}

func newRunningPartitioner(t *testing.T, cfg core.Config) *core.Partitioner {
	t.Helper()
	g := gen.HolmeKim(250, 3, 0.1, 5)
	p, err := core.New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tickBatch(g *graph.Graph, rng *rand.Rand, size int) graph.Batch {
	var b graph.Batch
	slots := g.NumSlots()
	for i := 0; i < size; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
				U: graph.VertexID(rng.Intn(slots)), V: graph.VertexID(rng.Intn(slots + 3))})
		case 2:
			u := graph.VertexID(rng.Intn(slots))
			if nb := g.Neighbors(u); len(nb) > 0 {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: nb[rng.Intn(len(nb))]})
			}
		case 3:
			b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: graph.VertexID(rng.Intn(slots))})
		}
	}
	return b
}

// TestSnapshotFileRoundTripDeterminism is the acceptance-criterion test
// at the file level: a run checkpointed to disk mid-stream and restored
// from the file finishes with byte-identical assignments to the
// uninterrupted run — sequential and parallel, full-sweep and
// incremental.
func TestSnapshotFileRoundTripDeterminism(t *testing.T) {
	modes := []struct {
		name        string
		parallelism int
		incremental bool
	}{
		{"sequential-full", 1, false},
		{"sequential-incremental", 1, true},
		{"parallel2-incremental", 2, true},
	}
	const ticks, checkpointAt, steps = 10, 4, 3
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "apartd.snap")
			run := func(restart bool) *core.Partitioner {
				cfg := testConfig(mode.parallelism, mode.incremental)
				p := newRunningPartitioner(t, cfg)
				rng := rand.New(rand.NewSource(31))
				for tick := 0; tick < ticks; tick++ {
					p.ApplyBatch(tickBatch(p.Graph(), rng, 18))
					for s := 0; s < steps; s++ {
						p.Step()
					}
					if restart && tick == checkpointAt {
						snap, err := Capture(p, cfg, Meta{Ticks: uint64(tick + 1)})
						if err != nil {
							t.Fatal(err)
						}
						if err := Save(path, snap); err != nil {
							t.Fatal(err)
						}
						loaded, err := Load(path)
						if err != nil {
							t.Fatal(err)
						}
						if loaded.Meta.Ticks != uint64(tick+1) {
							t.Fatalf("meta ticks %d, want %d", loaded.Meta.Ticks, tick+1)
						}
						p, err = loaded.NewPartitioner()
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				return p
			}
			straight := run(false)
			restarted := run(true)
			sa, ra := straight.Assignment().Table(), restarted.Assignment().Table()
			if len(sa) != len(ra) {
				t.Fatalf("table sizes diverged: %d vs %d", len(sa), len(ra))
			}
			for i := range sa {
				if sa[i] != ra[i] {
					t.Fatalf("assignment diverged at slot %d: %d vs %d", i, sa[i], ra[i])
				}
			}
			if straight.Iteration() != restarted.Iteration() {
				t.Fatalf("iterations diverged: %d vs %d", straight.Iteration(), restarted.Iteration())
			}
		})
	}
}

// TestSnapshotMidOverlayCheckpoint pins the storage-layer acceptance
// criterion explicitly: a checkpoint taken while the graph carries a
// non-empty mutation overlay (and arena garbage) must round-trip the
// overlay exactly — the snapshot bytes are reproducible, and the restored
// run replays the remaining stream to byte-identical assignments.
func TestSnapshotMidOverlayCheckpoint(t *testing.T) {
	cfg := testConfig(1, true)
	p := newRunningPartitioner(t, cfg)
	rng := rand.New(rand.NewSource(77))
	p.ApplyBatch(tickBatch(p.Graph(), rng, 40))
	for s := 0; s < 2; s++ {
		p.Step()
	}
	if p.Graph().OverlayMass() == 0 {
		t.Fatal("fixture graph has an empty overlay — the test would be vacuous")
	}
	snap, err := Capture(p, cfg, Meta{Ticks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Write(&a, snap); err != nil {
		t.Fatal(err)
	}
	reread, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("mid-overlay snapshot failed to read back: %v", err)
	}
	if reread.Graph.OverlayMass() != snap.Graph.OverlayMass() {
		t.Fatalf("overlay mass diverged across the file: %d vs %d",
			snap.Graph.OverlayMass(), reread.Graph.OverlayMass())
	}
	if err := Write(&b, reread); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("mid-overlay snapshot re-encode not byte-identical (%d vs %d bytes)", a.Len(), b.Len())
	}
	// The restored partitioner must track the original step for step.
	q, err := reread.NewPartitioner()
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(99))
	batch := tickBatch(p.Graph(), rng2, 25)
	p.ApplyBatch(batch)
	q.ApplyBatch(batch)
	for s := 0; s < 5; s++ {
		p.Step()
		q.Step()
	}
	pa, qa := p.Assignment().Table(), q.Assignment().Table()
	for i := range pa {
		if pa[i] != qa[i] {
			t.Fatalf("post-restore assignment diverged at slot %d: %d vs %d", i, pa[i], qa[i])
		}
	}
}

// TestSnapshotPreservesParams checks that the restored configuration
// matches what the snapshot was taken under, except the shard count:
// the snapshot does not carry it, and the restored partitioner runs one
// shard unless the restoring process asks for more.
func TestSnapshotPreservesParams(t *testing.T) {
	cfg := testConfig(2, true)
	cfg.BalanceEdges = false
	p := newRunningPartitioner(t, cfg)
	p.Step()
	snap, err := Capture(p, cfg, Meta{MutationsIngested: 42, MutationsApplied: 40, CreatedUnix: 1700000000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != snap.Params {
		t.Fatalf("params diverged:\n got %+v\nwant %+v", got.Params, snap.Params)
	}
	if got.Meta != snap.Meta {
		t.Fatalf("meta diverged:\n got %+v\nwant %+v", got.Meta, snap.Meta)
	}
	restored, err := got.NewPartitioner()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Parallelism() != 1 {
		t.Fatalf("restored partitioner runs %d shards, want 1", restored.Parallelism())
	}
}

// TestSnapshotDetectsCorruption flips each byte of a serialized snapshot
// in turn and requires Read to fail on every mutant (the CRC trailer
// catches whatever the structural validation does not).
func TestSnapshotDetectsCorruption(t *testing.T) {
	cfg := testConfig(1, true)
	p := newRunningPartitioner(t, cfg)
	p.Step()
	snap, err := Capture(p, cfg, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	stride := len(full)/97 + 1
	for i := 0; i < len(full); i += stride {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipped byte %d of %d read back successfully", i, len(full))
		}
	}
	// Truncations must fail too.
	for _, cut := range []int{0, 7, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes read back successfully", cut)
		}
	}
}

// TestSnapshotRejectsFutureVersion ensures a version bump fails loudly
// rather than misparsing.
func TestSnapshotRejectsFutureVersion(t *testing.T) {
	cfg := testConfig(1, false)
	p := newRunningPartitioner(t, cfg)
	snap, err := Capture(p, cfg, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[len(Magic):], Version+1)
	// Re-stamp the checksum so only the version differs.
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version read back successfully")
	}
}

// TestSaveIsAtomic verifies that a Save over an existing snapshot either
// keeps the old file or installs the new one — and that the temp file is
// cleaned up.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "apartd.snap")
	cfg := testConfig(1, false)
	p := newRunningPartitioner(t, cfg)
	snap, err := Capture(p, cfg, Meta{Ticks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	snap.Meta.Ticks = 2
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Ticks != 2 {
		t.Fatalf("loaded ticks %d, want 2", got.Meta.Ticks)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestSnapshotClusterIdentityRoundtrip pins the v4 cluster section:
// present identities survive a write/read cycle byte-exactly, absent
// ones stay absent, and implausible geometry is rejected at decode.
func TestSnapshotClusterIdentityRoundtrip(t *testing.T) {
	cfg := testConfig(3, true)
	p := newRunningPartitioner(t, cfg)
	for i := 0; i < 3; i++ {
		p.Step()
	}
	snap, err := Capture(p, cfg, Meta{Ticks: 3})
	if err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	if err := Write(&plain, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cluster != nil {
		t.Fatalf("single-process snapshot restored cluster identity %+v", got.Cluster)
	}

	snap.Cluster = &ClusterIdentity{ShardID: 1, NumShards: 3, RoundsCompleted: 4242}
	var clustered bytes.Buffer
	if err := Write(&clustered, snap); err != nil {
		t.Fatal(err)
	}
	got, err = Read(bytes.NewReader(clustered.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cluster == nil || *got.Cluster != *snap.Cluster {
		t.Fatalf("cluster identity roundtrip: %+v, want %+v", got.Cluster, snap.Cluster)
	}

	snap.Cluster = &ClusterIdentity{ShardID: 5, NumShards: 2}
	var bad bytes.Buffer
	if err := Write(&bad, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(bad.Bytes())); err == nil {
		t.Fatal("implausible cluster identity accepted")
	}
}

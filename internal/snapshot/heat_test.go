package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// heatTrace is a deterministic synthetic read trace: tick t samples a
// small rotating window of vertices, like a crawling hotset.
func heatTrace(tick, slots int) []graph.VertexID {
	base := (tick * 17) % slots
	samples := make([]graph.VertexID, 0, 12)
	for i := 0; i < 12; i++ {
		samples = append(samples, graph.VertexID((base+i*3)%slots))
	}
	return samples
}

// TestSnapshotHeatRoundTrip is the heat-table acceptance test: a
// workload-weighted run checkpointed mid-decay and restored from the
// file must produce byte-identical subsequent assignments — the decayed
// float32 accumulator round-trips bit-exactly through format v3.
func TestSnapshotHeatRoundTrip(t *testing.T) {
	for _, mode := range []struct {
		name        string
		parallelism int
		incremental bool
	}{
		{"sequential-full", 1, false},
		{"parallel2-incremental", 2, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			const ticks, checkpointAt, steps = 12, 5, 3
			run := func(restart bool) *core.Partitioner {
				cfg := testConfig(mode.parallelism, mode.incremental)
				cfg.WorkloadWeight = 6
				p := newRunningPartitioner(t, cfg)
				var file bytes.Buffer
				for tick := 0; tick < ticks; tick++ {
					p.FoldHeat(0.8, heatTrace(tick, p.Graph().NumSlots()), 64)
					for s := 0; s < steps; s++ {
						p.Step()
					}
					if restart && tick == checkpointAt {
						snap, err := Capture(p, cfg, Meta{Ticks: uint64(tick + 1)})
						if err != nil {
							t.Fatal(err)
						}
						if err := Write(&file, snap); err != nil {
							t.Fatal(err)
						}
						loaded, err := Read(bytes.NewReader(file.Bytes()))
						if err != nil {
							t.Fatal(err)
						}
						if loaded.Params.WorkloadWeight != 6 {
							t.Fatalf("restored WorkloadWeight = %g, want 6", loaded.Params.WorkloadWeight)
						}
						if len(loaded.Core.Heat) == 0 {
							t.Fatal("restored snapshot carries no heat accumulator")
						}
						p, err = loaded.NewPartitioner()
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				return p
			}
			straight, restarted := run(false), run(true)
			sa, ra := straight.Assignment().Table(), restarted.Assignment().Table()
			if len(sa) != len(ra) {
				t.Fatalf("table sizes diverged: %d vs %d", len(sa), len(ra))
			}
			for i := range sa {
				if sa[i] != ra[i] {
					t.Fatalf("assignment diverged at slot %d after heat restore: %d vs %d", i, sa[i], ra[i])
				}
			}
			sh, rh := straight.HeatSnapshot(), restarted.HeatSnapshot()
			if len(sh) != len(rh) {
				t.Fatalf("heat lengths diverged: %d vs %d", len(sh), len(rh))
			}
			for i := range sh {
				if math.Float32bits(sh[i]) != math.Float32bits(rh[i]) {
					t.Fatalf("heat diverged at slot %d: %x vs %x", i, sh[i], rh[i])
				}
			}
		})
	}
}

// v4Fixture is a version-4 checkpoint written by the last v4 writer: a
// directed 120-vertex graph with a pending overlay, two shards' generator
// states, active-set state, a heat accumulator and a cluster identity.
const v4Fixture = "testdata/v4.snap"

// TestSnapshotReadsVersion4 pins backward compatibility: the v4 file
// reads with its shard count and generator states skipped, every other
// field intact, and restores at any Parallelism to the same continuation.
func TestSnapshotReadsVersion4(t *testing.T) {
	s, err := Load(v4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	want := Params{K: 4, CapacityFactor: 1.1, S: 0.5, ConvergenceWindow: 30, MaxIterations: 5000,
		Seed: 11, Incremental: true, WorkloadWeight: 4}
	if s.Params != want {
		t.Fatalf("params %+v, want %+v", s.Params, want)
	}
	if want := (Meta{Ticks: 4, MutationsIngested: 482, MutationsApplied: 480, CreatedUnix: 1700000000}); s.Meta != want {
		t.Fatalf("meta %+v, want %+v", s.Meta, want)
	}
	if s.Cluster == nil || *s.Cluster != (ClusterIdentity{ShardID: 1, NumShards: 2, RoundsCompleted: 9}) {
		t.Fatalf("cluster identity %+v", s.Cluster)
	}
	var table []byte
	for _, p := range s.Assignment.Table() {
		table = binary.LittleEndian.AppendUint32(table, uint32(int32(p)))
	}
	if sum := crc32.ChecksumIEEE(table); sum != 0x3ccfba4e || s.Graph.NumEdges() != 462 {
		t.Fatalf("assignment crc %08x over %d edges, written as 3ccfba4e over 462", sum, s.Graph.NumEdges())
	}
	c := s.Core
	if c.Iteration != 4 || c.Quiet != 0 || c.LastMigration != 3 || c.Active == nil || len(c.Active.Frontier) != 89 || len(c.Heat) != 120 {
		t.Fatalf("core state: iteration %d quiet %d last %d active %v heat %d", c.Iteration, c.Quiet, c.LastMigration, c.Active != nil, len(c.Heat))
	}

	// Restore at one shard and at four: both continue identically, and
	// the v5 re-encoding reads back to the same continuation.
	var tables [][]partition.ID
	for _, par := range []int{1, 4} {
		s, err := Load(v4Fixture)
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Params.Config()
		cfg.Parallelism = par
		p, err := core.Restore(s.Graph, s.Assignment, cfg, s.Core)
		if err != nil {
			t.Fatalf("restoring the v4 snapshot at %d shards: %v", par, err)
		}
		for i := 0; i < 6; i++ {
			p.Step()
		}
		tables = append(tables, p.Assignment().Table())
	}
	var v5 bytes.Buffer
	if err := Write(&v5, s); err != nil {
		t.Fatal(err)
	}
	again, err := Read(&v5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := again.NewPartitioner()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p.Step()
	}
	tables = append(tables, p.Assignment().Table())
	for i, tb := range tables[1:] {
		if !slices.Equal(tb, tables[0]) {
			t.Fatalf("continuation %d differs from the one-shard restore", i+1)
		}
	}
}

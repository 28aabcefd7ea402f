package snapshot

import (
	"bytes"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// BenchmarkSnapshotRoundTrip writes and reads back a checkpoint of a
// BA(300k,3) partitioner carrying a heat accumulator — the shape the
// steady-churn daemon restores from. Run with -benchmem.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cfg := core.DefaultConfig(9, 1)
	cfg.RecordEvery = 0
	cfg.WorkloadWeight = 4
	g := gen.BarabasiAlbert(300000, 3, 1)
	p, err := core.New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		b.Fatal(err)
	}
	hot := make([]graph.VertexID, 0, 4096)
	for v := 0; v < g.NumSlots(); v += 73 {
		hot = append(hot, graph.VertexID(v))
	}
	p.FoldHeat(0.9, hot, 16)
	snap, err := Capture(p, cfg, Meta{Ticks: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for b.Loop() {
		buf.Reset()
		if err := Write(&buf, snap); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

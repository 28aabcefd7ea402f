package snapshot

import (
	"bytes"
	"math"
	"os"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// FuzzReadSnapshot hammers the snapshot reader with mutated byte
// streams: whatever the input, Read must fail cleanly or return a
// snapshot whose state is internally consistent — consistent enough to
// re-encode. Seeds cover both supported format versions (the v4 one is
// testdata/v4.snap) and the heat section.
func FuzzReadSnapshot(f *testing.F) {
	seed := func(withHeat bool) []byte {
		cfg := core.DefaultConfig(3, 9)
		cfg.RecordEvery = 0
		if withHeat {
			cfg.WorkloadWeight = 4
			cfg.Incremental = true
		}
		g := graph.NewUndirected(16)
		var b graph.Batch
		for i := 0; i < 40; i++ {
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
				U: graph.VertexID(i % 13), V: graph.VertexID((i*7 + 1) % 13)})
		}
		g.Apply(b)
		p, err := core.New(g, partition.Hash(g, cfg.K), cfg)
		if err != nil {
			f.Fatal(err)
		}
		if withHeat {
			p.FoldHeat(0.9, []graph.VertexID{1, 2, 3, 5, 8, 1, 1}, 16)
		}
		for i := 0; i < 4; i++ {
			p.Step()
		}
		snap, err := Capture(p, cfg, Meta{Ticks: 4})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := seed(false)
	f.Add(plain)
	hot := seed(true)
	f.Add(hot)
	// The same snapshot with a NaN heat entry: it decodes, but restore
	// must refuse it.
	snap, err := Read(bytes.NewReader(hot))
	if err != nil {
		f.Fatal(err)
	}
	snap.Core.Heat[2] = float32(math.NaN())
	var nan bytes.Buffer
	if err := Write(&nan, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(nan.Bytes())
	v4, err := os.ReadFile(v4Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed snapshot must re-encode cleanly; restore
		// may legitimately reject semantic mismatches the codec cannot
		// see (e.g. impossible heat), but must not panic.
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("re-encoding accepted snapshot: %v", err)
		}
		if size := encodedSize(s); size != int64(buf.Len()) {
			t.Fatalf("encodedSize %d, Write produced %d bytes", size, buf.Len())
		}
		_, err = s.NewPartitioner()
		if err != nil {
			t.Logf("restore rejected: %v", err)
		}
		for i, h := range s.Core.Heat {
			if m := float64(h); (!(m >= 0) || math.IsInf(m, 1)) && err == nil {
				t.Fatalf("restore accepted heat %v at slot %d", h, i)
			}
		}
	})
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// downgradeToV2 rewrites a v3 snapshot byte stream that carries no heat
// accumulator into the exact v2 layout: version field 2, the
// WorkloadWeight f64 removed from the params block, the heat-presence
// byte removed from the core section, checksum recomputed. The byte
// offsets are part of the pinned on-disk format.
func downgradeToV2(tb testing.TB, v3 []byte) []byte {
	tb.Helper()
	// params block: 7×i64/f64 (56B) + bool + i64 + bool + bool, then the
	// v3 WorkloadWeight f64 — offset 12+56+1+8+1+1 = 79.
	const wwOff = 79
	body := v3[:len(v3)-4]
	// The current writer ends the body with the heat-presence bool (v3+)
	// followed by the cluster-presence bool (v4+); a v2 stream has
	// neither.
	if body[len(body)-1] != 0 || body[len(body)-2] != 0 {
		tb.Fatal("fixture snapshot unexpectedly carries a heat accumulator or cluster identity")
	}
	out := append([]byte(nil), body[:len(body)-2]...)
	binary.LittleEndian.PutUint32(out[8:12], 2)
	out = append(out[:wwOff], out[wwOff+8:]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out))
	return append(out, crc[:]...)
}

// FuzzReadSnapshot hammers the snapshot reader with mutated byte
// streams: whatever the input, Read must fail cleanly or return a
// snapshot whose state is internally consistent — consistent enough to
// re-encode. Seeds cover both supported format versions and the v3 heat
// section.
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
	f.Add(downgradeToV2(f, plain))
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed snapshot must re-encode cleanly; restore
		// may legitimately reject semantic mismatches the codec cannot
		// see (e.g. RNG state length), but must not panic.
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

package graph_test

import (
	"bytes"
	"fmt"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/graph/modeltest"
)

// TestCompactMatchesReference replays random mutation histories (vertex
// and edge additions and removals, ID recycling, explicit compactions)
// and, at every checkpoint of the model harness, compacts two clones of
// the graph: one with Compact, one with the per-vertex reference
// builder. Both must encode to identical bytes — arena, spans (including
// the offsets of empty ones), free list and all — and the arena must
// come out exactly sized.
func TestCompactMatchesReference(t *testing.T) {
	check := func(g *graph.Graph) error {
		got, want := g.Clone(), g.Clone()
		got.Compact()
		graph.CompactReference(want)
		var gb, wb bytes.Buffer
		if err := got.EncodeBinary(&gb); err != nil {
			return err
		}
		if err := want.EncodeBinary(&wb); err != nil {
			return err
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			return fmt.Errorf("Compact encodes %d bytes that differ from the reference's %d", gb.Len(), wb.Len())
		}
		if ms, rs := got.MemoryStats(), want.MemoryStats(); ms.Bytes != rs.Bytes {
			return fmt.Errorf("Compact footprint %d B, reference %d B", ms.Bytes, rs.Bytes)
		}
		return got.CheckInvariants()
	}
	for _, directed := range []bool{false, true} {
		for _, slots := range []int{64, 512} {
			for seed := uint64(1); seed <= 3; seed++ {
				modeltest.Run(t, modeltest.Options{
					Seed: seed, Ops: 4000, Directed: directed, MaxSlots: slots,
					CheckEvery: 32, Check: check,
				})
			}
		}
	}
}

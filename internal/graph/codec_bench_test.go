package graph_test

import (
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
)

// BenchmarkDecodeGraph decodes a BA(300k,3) payload — about 10 MB, the
// graph section of the steady-churn checkpoint — including the closing
// CheckInvariants pass. Run with -benchmem.
func BenchmarkDecodeGraph(b *testing.B) {
	data, err := gen.BarabasiAlbert(300000, 3, 1).AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := graph.DecodeGraph(data); err != nil {
			b.Fatal(err)
		}
	}
}

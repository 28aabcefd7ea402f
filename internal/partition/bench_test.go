package partition

import (
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
)

func BenchmarkHashAssign(b *testing.B) {
	g := gen.Cube3D(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(g, 9)
	}
}

func BenchmarkCutEdges(b *testing.B) {
	g := gen.Cube3D(20)
	a := Hash(g, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CutEdges(g, a)
	}
}

func BenchmarkLinearGreedyStream(b *testing.B) {
	g := gen.HolmeKim(5000, 6, 0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinearGreedy(g, 9, 1.10, 1)
	}
}

// epochFixture is a steady-churn-sized table: 300k slots over k=9, every
// slot placed, and one epoch's worth of changes (170 moves).
func epochFixture() (*Assignment, []Change) {
	const slots, k, moves = 300_000, 9, 170
	a := NewAssignment(slots, k)
	for v := range slots {
		a.Assign(graph.VertexID(v), HashVertex(graph.VertexID(v), k))
	}
	changes := make([]Change, moves)
	for i := range changes {
		v := graph.VertexID(i * (slots / moves))
		changes[i] = Change{Vertex: v, To: (a.Of(v) + 1) % k}
	}
	return a, changes
}

// BenchmarkFreeze is the primary's per-epoch publish copy.
func BenchmarkFreeze(b *testing.B) {
	a, _ := epochFixture()
	b.ReportAllocs()
	for b.Loop() {
		a.Freeze()
	}
}

// BenchmarkFrozenApply is the replica's per-epoch diff application.
func BenchmarkFrozenApply(b *testing.B) {
	a, changes := epochFixture()
	f := a.Freeze()
	b.ReportAllocs()
	for b.Loop() {
		f.Apply(changes)
	}
}

package core

import (
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file is the heuristic's only source of randomness. Every random
// choice vertex v makes in iteration t — the willingness coin of Section
// 2.3, then the shuffle of its tied best destinations — is the index-th
// word of a counter-based function of (Seed, t, v, index): a SplitMix64
// stream whose start is the SplitMix64 finaliser of (Seed, t, v). The
// draws therefore depend on nothing but the vertex and the iteration, not
// on which shard, goroutine or process decides it, nor on how many
// vertices were decided before it. That is what makes placements
// independent of the shard count (Config.Parallelism, cluster size) and
// leaves no generator state to checkpoint. It is the deterministic form
// of the per-vertex Random of the Okapi and Flink ARPComputation
// implementations; internal/adaptive keys its draws the same way by
// superstep.

// DrawKey is the per-iteration key the vertex streams derive from.
type DrawKey uint64

// Draws is one vertex's stream of random words for one iteration. The
// zero value is a valid (fixed) stream; use DrawKey.Vertex.
type Draws struct{ state uint64 }

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 finaliser, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// IterationDraws returns the key of iteration iter under seed.
func IterationDraws(seed int64, iter int) DrawKey {
	return DrawKey(mix64(mix64(uint64(seed)+golden) ^ uint64(iter)))
}

// Vertex returns v's stream under k.
func (k DrawKey) Vertex(v graph.VertexID) Draws {
	return Draws{state: mix64(uint64(k) ^ uint64(v))}
}

// next returns the stream's next word.
func (d *Draws) next() uint64 {
	d.state += golden
	return mix64(d.state)
}

// Float64 returns a uniform draw in [0, 1).
func (d *Draws) Float64() float64 { return float64(d.next()>>11) * 0x1p-53 }

// Shuffle permutes ids uniformly (Fisher–Yates, one draw per position
// after the first). A single candidate consumes no draw.
func (d *Draws) Shuffle(ids []partition.ID) {
	for i := len(ids) - 1; i > 0; i-- {
		j := int((d.next() >> 32) * uint64(i+1) >> 32)
		ids[i], ids[j] = ids[j], ids[i]
	}
}

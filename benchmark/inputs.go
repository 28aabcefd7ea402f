package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
)

// Every input below is a pure function of the seed and the size
// parameters, and is built before any timer starts.

// baGrowth returns the edge additions of a Barabási–Albert graph BA(n, m)
// in growth order: a seed clique of m+1 vertices, then each new vertex v
// attaches to m distinct earlier vertices chosen with probability
// proportional to degree. The result has exactly n vertices and
// m(m+1)/2 + (n-m-1)·m edges.
func baGrowth(n, m int, seed int64) graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make(graph.Batch, 0, m*n)
	repeated := make([]graph.VertexID, 0, 2*m*n)
	add := func(u, v graph.VertexID) {
		out = append(out, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
		repeated = append(repeated, u, v)
	}
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			add(graph.VertexID(i), graph.VertexID(j))
		}
	}
	targets := make([]graph.VertexID, 0, m)
	for v := m + 1; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := repeated[rng.Intn(len(repeated))]
			dup := false
			for _, x := range targets {
				dup = dup || x == t
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			add(graph.VertexID(v), t)
		}
	}
	return out
}

// baEdges is the edge count baGrowth(n, m, ·) produces.
func baEdges(n, m int) int { return m*(m+1)/2 + (n-m-1)*m }

// buildGraph materialises a batch of edge additions as an undirected graph.
func buildGraph(n int, b graph.Batch) *graph.Graph {
	g := graph.NewUndirected(n)
	g.Apply(b)
	return g
}

// chunk splits b into consecutive batches of at most size mutations.
func chunk(b graph.Batch, size int) []graph.Batch {
	var out []graph.Batch
	for len(b) > 0 {
		n := min(size, len(b))
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out
}

// steadyChurn generates ticks batches of stationary churn against a shadow
// copy of g (which it mutates): each batch removes perTick/2 live edges
// (a random endpoint, then a random neighbour) and adds perTick/2
// triangle-closing edges (two distinct neighbours of a random vertex that
// are not yet adjacent), so the edge count stays level while the wiring
// drifts towards more local structure.
func steadyChurn(g *graph.Graph, ticks, perTick int, seed int64) []graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	verts := g.Vertices()
	out := make([]graph.Batch, ticks)
	for t := range out {
		b := make(graph.Batch, 0, perTick)
		for len(b) < perTick/2 {
			u := verts[rng.Intn(len(verts))]
			nb := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			v := nb[rng.Intn(len(nb))]
			g.RemoveEdge(u, v)
			b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
		}
		for len(b) < perTick {
			u := verts[rng.Intn(len(verts))]
			nb := g.Neighbors(u)
			if len(nb) < 2 {
				continue
			}
			a, c := nb[rng.Intn(len(nb))], nb[rng.Intn(len(nb))]
			if a == c || g.HasEdge(a, c) {
				continue
			}
			g.AddEdge(a, c)
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: a, V: c})
		}
		out[t] = b
	}
	return out
}

// zipfReads draws perTick Zipf(s)-distributed read keys for each of ticks
// ticks over the vertices of g. Rank r maps to a vertex through a seeded
// permutation rotated by a fresh offset every shiftEvery ticks, so the hot
// set moves wholesale (a flash crowd) while the popularity curve stays put.
func zipfReads(g *graph.Graph, ticks, perTick, shiftEvery int, s float64, seed int64) [][]graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	verts := g.Vertices()
	rng.Shuffle(len(verts), func(i, j int) { verts[i], verts[j] = verts[j], verts[i] })
	z := gen.Zipf(rng, s, len(verts))
	out := make([][]graph.VertexID, ticks)
	offset := 0
	for t := range out {
		if t > 0 && t%shiftEvery == 0 {
			offset = rng.Intn(len(verts))
		}
		reads := make([]graph.VertexID, perTick)
		for i := range reads {
			reads[i] = verts[(int(z.Uint64())+offset)%len(verts)]
		}
		out[t] = reads
	}
	return out
}

// rewireChurn is the churn stream of the analytics experiment
// (internal/experiments, "apps"): every batch removes rate·|E| random live
// edges of an evolving shadow of g and adds as many random non-edges, so
// the graph's size stays stationary while its wiring drifts.
func rewireChurn(shadow *graph.Graph, rate float64, nBatches int, seed int64) []graph.Batch {
	rng := rand.New(rand.NewSource(seed))
	verts := shadow.Vertices()
	out := make([]graph.Batch, 0, nBatches)
	for i := 0; i < nBatches; i++ {
		ops := max(int(rate*float64(shadow.NumEdges())), 1)
		var edges [][2]graph.VertexID
		shadow.ForEachEdge(func(u, v graph.VertexID) { edges = append(edges, [2]graph.VertexID{u, v}) })
		b := make(graph.Batch, 0, 2*ops)
		for j := 0; j < ops && len(edges) > 0; j++ {
			i := rng.Intn(len(edges))
			u, v := edges[i][0], edges[i][1]
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			if shadow.RemoveEdge(u, v) {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
			}
		}
		for j := 0; j < ops; j++ {
			for tries := 0; tries < 32; tries++ {
				u := verts[rng.Intn(len(verts))]
				v := verts[rng.Intn(len(verts))]
				if u != v && !shadow.HasEdge(u, v) {
					shadow.AddEdge(u, v)
					b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
					break
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// encodeFrames pre-encodes each tick's batch as binary wire frames of at
// most frameSize mutations, the bytes the producer connection writes.
func encodeFrames(ticks []graph.Batch, frameSize int) ([][][]byte, error) {
	out := make([][][]byte, len(ticks))
	for t, b := range ticks {
		for _, c := range chunk(b, frameSize) {
			f, err := graph.AppendBatchFrame(nil, c)
			if err != nil {
				return nil, err
			}
			out[t] = append(out[t], f)
		}
	}
	return out, nil
}

// hasher fingerprints inputs and placement tables (FNV-1a, 64 bit).
type hasher struct{ h hash.Hash64 }

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) ints(xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.h.Write(buf[:])
	}
}

func (h *hasher) batches(bs ...graph.Batch) {
	for _, b := range bs {
		h.ints(int64(len(b)))
		for _, m := range b {
			h.ints(int64(m.Kind), int64(m.U), int64(m.V))
		}
	}
}

func (h *hasher) vertices(vs ...[]graph.VertexID) {
	for _, v := range vs {
		h.ints(int64(len(v)))
		for _, x := range v {
			h.ints(int64(x))
		}
	}
}

func (h *hasher) sum() uint64 { return h.h.Sum64() }

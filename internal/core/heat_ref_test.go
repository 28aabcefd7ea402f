package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"xdgp/internal/activeset"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// denseHeatRef is the reference the sparse heat plane is checked
// against: the accumulator folded by two passes over every slot, as
// FoldHeat did before it kept an index of the non-zero slots.
type denseHeatRef struct {
	heat  []float32
	scale float64
}

// fold is the dense FoldHeat: decay every non-zero slot, add the
// samples, then take the maximum and hot count over every slot. added
// counts the samples inside the slot range.
func (r *denseHeatRef) fold(slots int, workloadWeight, decay float64, samples []graph.VertexID, sampleWeight float64) (max float64, hot, added int) {
	if len(r.heat) < slots {
		r.heat = append(r.heat, make([]float32, slots-len(r.heat))...)
	}
	for i, h := range r.heat {
		if h == 0 {
			continue
		}
		d := float64(h) * decay
		if d < heatFloor {
			d = 0
		}
		r.heat[i] = float32(d)
	}
	for _, v := range samples {
		if i := int(v); i >= 0 && i < len(r.heat) {
			r.heat[i] += float32(sampleWeight)
			added++
		}
	}
	for _, h := range r.heat {
		if h > 0 {
			hot++
			if m := float64(h); m > max {
				max = m
			}
		}
	}
	r.scale = 0
	if workloadWeight > 0 && max > 0 {
		r.scale = workloadWeight / max
	}
	return max, hot, added
}

// refBestPartitionsHeatInto is the dense heat-weighted scorer: every
// neighbour's heat is loaded, hot or not.
func refBestPartitionsHeatInto(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, heat []float32, scale float64, countsF []float64, tied []partition.ID) []partition.ID {
	vote := func(w graph.VertexID) float64 {
		if i := int(w); i < len(heat) {
			return 1 + scale*float64(heat[i])
		}
		return 1
	}
	for i := range countsF {
		countsF[i] = 0
	}
	// Γ(v) includes v itself, but the self-vote stays 1 even when v is
	// hot: a vertex is always co-located with itself, so inflating it
	// would only anchor hot vertices in place — the opposite of pulling
	// co-read neighbourhoods together.
	countsF[cur]++
	if nbrs, ok := g.CleanNeighbors(v); ok {
		for _, w := range nbrs {
			if pw := asn.Of(w); pw != partition.None {
				countsF[pw] += vote(w)
			}
		}
	} else {
		var c graph.Cursor
		c.Reset(g, v)
		for {
			chunk := c.NextChunk()
			if chunk == nil {
				break
			}
			for _, w := range chunk {
				if pw := asn.Of(w); pw != partition.None {
					countsF[pw] += vote(w)
				}
			}
		}
	}
	if g.Directed() {
		if nbrs, ok := g.CleanInNeighbors(v); ok {
			for _, w := range nbrs {
				if pw := asn.Of(w); pw != partition.None {
					countsF[pw] += vote(w)
				}
			}
		} else {
			var c graph.Cursor
			c.ResetIn(g, v)
			for {
				chunk := c.NextChunk()
				if chunk == nil {
					break
				}
				for _, w := range chunk {
					if pw := asn.Of(w); pw != partition.None {
						countsF[pw] += vote(w)
					}
				}
			}
		}
	}
	max := 0.0
	for _, c := range countsF {
		if c > max {
			max = c
		}
	}
	tied = tied[:0]
	if countsF[cur] == max {
		return tied
	}
	for i, c := range countsF {
		if c == max {
			tied = append(tied, partition.ID(i))
		}
	}
	return tied
}

// Fold parameters the differential driver picks from: 1.0 is the
// daemon's decay-free pending fold, 0.25 snaps quickly, and the weights
// include zero and sub-floor samples.
var (
	refDecays  = []float64{1.0, 0.9, 0.5, 0.25, 0.999, 0.8}
	refWeights = []float64{1, 16, 0.5, 1e-4, 0, 3}
)

// foldHeatDifferential drives one Partitioner and the dense reference
// through the same operation stream, decoded from ops: folds with
// duplicate and out-of-range samples, decay-only silent stretches,
// growing and shrinking batches, steps, and checkpoint/restore. After
// every fold it requires bit-identical accumulators, maxima, hot counts
// and scales and the woken frontier, and after every operation identical
// votes and winners for every live vertex.
func foldHeatDifferential(t *testing.T, ops []byte) {
	t.Helper()
	pos := 0
	next := func() int {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int(ops[pos-1])
	}
	directed := next()%2 == 1
	cfg := DefaultConfig(3, int64(next()))
	cfg.RecordEvery = 0
	cfg.Incremental = true
	cfg.Parallelism = 1 + next()%2
	cfg.WorkloadWeight = float64(1 + next()%6)
	rng := rand.New(rand.NewPCG(uint64(next()), 7))

	n := 24 + next()%40
	g := graph.NewUndirected(n)
	if directed {
		g = graph.NewDirected(n)
	}
	var b graph.Batch
	for i := 0; i < 3*n; i++ {
		b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
			U: graph.VertexID(rng.IntN(n)), V: graph.VertexID(rng.IntN(n))})
	}
	g.Apply(b)
	p, err := New(g, partition.Hash(g, cfg.K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ref denseHeatRef

	checkVotes := func(what string) {
		t.Helper()
		if p.heatScale != ref.scale {
			t.Fatalf("%s: heatScale %v, reference %v", what, p.heatScale, ref.scale)
		}
		got, want := make([]float64, cfg.K), make([]float64, cfg.K)
		var gotTied, wantTied []partition.ID
		p.g.ForEachVertex(func(v graph.VertexID) {
			cur := p.asn.Of(v)
			gotTied = bestPartitionsHeatInto(p.g, p.asn, v, cur, p.heat, p.heatBits, p.heatScale, got, gotTied)
			wantTied = refBestPartitionsHeatInto(p.g, p.asn, v, cur, ref.heat, ref.scale, want, wantTied)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: vertex %d partition %d votes %v, reference %v", what, v, i, got[i], want[i])
				}
			}
			if len(gotTied) != len(wantTied) {
				t.Fatalf("%s: vertex %d tied %v, reference %v", what, v, gotTied, wantTied)
			}
			for i := range gotTied {
				if gotTied[i] != wantTied[i] {
					t.Fatalf("%s: vertex %d tied %v, reference %v", what, v, gotTied, wantTied)
				}
			}
		})
	}
	checkHeat := func(what string) {
		t.Helper()
		if len(p.heat) != len(ref.heat) {
			t.Fatalf("%s: %d heat slots, reference %d", what, len(p.heat), len(ref.heat))
		}
		for i := range p.heat {
			if math.Float32bits(p.heat[i]) != math.Float32bits(ref.heat[i]) {
				t.Fatalf("%s: heat[%d] = %v, reference %v", what, i, p.heat[i], ref.heat[i])
			}
		}
		// The index and the bitmap list exactly the non-zero slots.
		listed := 0
		for i, h := range p.heat {
			set := p.heatBits[i>>6]&(1<<(i&63)) != 0
			if set != (h != 0) {
				t.Fatalf("%s: slot %d heat %v, bitmap bit %v", what, i, h, set)
			}
			if set {
				listed++
			}
		}
		if len(p.heatIdx) != listed {
			t.Fatalf("%s: index lists %d slots, %d are non-zero", what, len(p.heatIdx), listed)
		}
		for _, i := range p.heatIdx {
			if p.heat[i] == 0 {
				t.Fatalf("%s: index lists cold slot %d", what, i)
			}
		}
		checkVotes(what)
	}
	fold := func(decay float64, samples []graph.VertexID, weight float64) {
		t.Helper()
		wake, err := activeset.RestoreSet(cfg.K, p.g.NumSlots(), p.active.Export())
		if err != nil {
			t.Fatal(err)
		}
		max, hot := p.FoldHeat(decay, samples, weight)
		rmax, rhot, added := ref.fold(p.g.NumSlots(), cfg.WorkloadWeight, decay, samples, weight)
		if math.Float64bits(max) != math.Float64bits(rmax) || hot != rhot {
			t.Fatalf("fold at op %d: max %v hot %d, reference max %v hot %d", pos, max, hot, rmax, rhot)
		}
		checkHeat("fold")
		// Fresh heat wakes every live sampled neighbourhood.
		if ref.scale != 0 && added > 0 {
			for _, v := range samples {
				if p.g.Has(v) {
					wake.MarkNeighborhood(p.g, v)
				}
			}
		}
		if got, want := p.active.Export(), wake.Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold at op %d: frontier %v, reference %v", pos, got.Frontier, want.Frontier)
		}
	}

	for pos < len(ops) {
		slots := p.g.NumSlots()
		switch next() % 8 {
		case 0, 1, 2: // a sampled fold, duplicates and strays included
			samples := make([]graph.VertexID, next()%24)
			for i := range samples {
				samples[i] = graph.VertexID(next()%(slots+8) - 2)
				if next()%3 == 0 && i > 0 {
					samples[i] = samples[i-1]
				}
			}
			fold(refDecays[next()%len(refDecays)], samples, refWeights[next()%len(refWeights)])
		case 3: // a silent stretch: decay-only folds snap entries to zero
			decay := refDecays[1+next()%(len(refDecays)-1)]
			for i := next() % 48; i >= 0; i-- {
				fold(decay, nil, 1)
			}
		case 4: // a pending fold: samples without decay
			fold(1.0, []graph.VertexID{graph.VertexID(next() % (slots + 1))}, 16)
		case 5: // growth and removal through ApplyBatch
			var b graph.Batch
			for i := next() % 12; i >= 0; i-- {
				u := graph.VertexID(next() % (slots + 1))
				if next()%4 == 0 {
					b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: u})
				} else {
					b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: graph.VertexID(slots + next()%6)})
				}
			}
			p.ApplyBatch(b)
			checkVotes("batch")
		case 6:
			p.Step()
			checkVotes("step")
		case 7: // checkpoint and restore
			p = serializeRoundTrip(t, p, cfg)
			checkHeat("restore")
		}
	}
}

// TestFoldHeatMatchesDenseReference runs the differential driver over
// seeded random operation streams.
func TestFoldHeatMatchesDenseReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 23))
		ops := make([]byte, 200+r.IntN(400))
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		foldHeatDifferential(t, ops)
	}
}

// FuzzFoldHeat feeds arbitrary operation streams to the differential
// driver.
func FuzzFoldHeat(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 9, 0, 12, 3, 4, 5, 5, 5, 1, 0, 6, 7, 3, 9, 40, 2})
	f.Add([]byte{1, 7, 1, 5, 3, 0, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 7, 6, 5, 11, 200, 3, 2, 60})
	f.Add([]byte{0, 3, 0, 0, 0, 1, 4, 5, 3, 1, 2, 3, 4, 5, 6, 0, 0, 7, 4, 9, 3, 5, 47})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		foldHeatDifferential(t, ops)
	})
}

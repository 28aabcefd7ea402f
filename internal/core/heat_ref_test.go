package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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

// refBestPartitionsHeatInto is the dense heat-weighted scorer, written
// as a plain loop over g.Neighbors then g.InNeighbors: every neighbour's
// heat is loaded, hot or not, and neighbours past the end of heat vote 1.
func refBestPartitionsHeatInto(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, heat []float32, scale float64, countsF []float64, tied []partition.ID) []partition.ID {
	refTallyHeat(g, asn, v, cur, heat, scale, countsF, false)
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

// refGamma lists the members of Γ(v) other than v, in the order the
// scorer must tally them: out-neighbours, then in-neighbours on digraphs.
func refGamma(g *graph.Graph, v graph.VertexID) []graph.VertexID {
	nbrs := g.Neighbors(v)
	if g.Directed() {
		nbrs = append(nbrs[:len(nbrs):len(nbrs)], g.InNeighbors(v)...)
	}
	return nbrs
}

// refTallyHeat is the dense heat-weighted tally; drain drops the
// self-vote, which is 1 even for a hot v.
func refTallyHeat(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, heat []float32, scale float64, countsF []float64, drain bool) {
	clear(countsF)
	if !drain {
		countsF[cur]++
	}
	for _, w := range refGamma(g, v) {
		if pw := asn.Of(w); pw != partition.None {
			vote := 1.0
			if i := int(w); i < len(heat) {
				vote = 1 + scale*float64(heat[i])
			}
			countsF[pw] += vote
		}
	}
}

// refTallyInt is the paper's integer tally.
func refTallyInt(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, counts []int, drain bool) {
	clear(counts)
	if !drain {
		counts[cur]++
	}
	for _, w := range refGamma(g, v) {
		if pw := asn.Of(w); pw != partition.None {
			counts[pw]++
		}
	}
}

// refBestInt is the integer argmax: nil when cur is among the best.
func refBestInt(counts []int, cur partition.ID) []partition.ID {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if counts[cur] == max {
		return nil
	}
	var tied []partition.ID
	for i, c := range counts {
		if c == max {
			tied = append(tied, partition.ID(i))
		}
	}
	return tied
}

// refBestOther is the hot-spot drain's argmax over every partition but
// cur, for either tally.
func refBestOther[C int | float64](counts []C, cur partition.ID) []partition.ID {
	var max C
	seen := false
	for i, c := range counts {
		if partition.ID(i) != cur && (!seen || c > max) {
			max, seen = c, true
		}
	}
	var tied []partition.ID
	for i, c := range counts {
		if partition.ID(i) != cur && c == max {
			tied = append(tied, partition.ID(i))
		}
	}
	return tied
}

// checkScorer compares s — Best and the drain form, for every live
// vertex — with the plain-loop reference under the heat view (heat,
// scale): the tally s kept (counts when the view is inactive, countsF bit
// for bit when active) and the tied winners.
func checkScorer(t *testing.T, what string, s *Scorer, g *graph.Graph, asn *partition.Assignment, heat []float32, scale float64) {
	t.Helper()
	if s.view.scale != scale {
		t.Fatalf("%s: scorer scale %v, reference %v", what, s.view.scale, scale)
	}
	k := asn.K()
	counts, countsF := make([]int, k), make([]float64, k)
	g.ForEachVertex(func(v graph.VertexID) {
		cur := asn.Of(v)
		if cur == partition.None {
			return // unplaced: only ever a neighbour, never scored
		}
		for _, drain := range []bool{false, true} {
			var got, want []partition.ID
			if drain {
				got = s.BestOther(g, asn, v, cur)
			} else {
				got = s.Best(g, asn, v, cur)
			}
			if scale != 0 {
				refTallyHeat(g, asn, v, cur, heat, scale, countsF, drain)
				for i := range countsF {
					if math.Float64bits(s.countsF[i]) != math.Float64bits(countsF[i]) {
						t.Fatalf("%s: vertex %d drain=%v partition %d votes %v, reference %v", what, v, drain, i, s.countsF[i], countsF[i])
					}
				}
				if drain {
					want = refBestOther(countsF, cur)
				} else {
					want = refBestPartitionsHeatInto(g, asn, v, cur, heat, scale, countsF, nil)
				}
			} else {
				refTallyInt(g, asn, v, cur, counts, drain)
				if !slices.Equal(s.counts, counts) {
					t.Fatalf("%s: vertex %d drain=%v counts %v, reference %v", what, v, drain, s.counts, counts)
				}
				if drain {
					want = refBestOther(counts, cur)
				} else {
					want = refBestInt(counts, cur)
				}
			}
			if !slices.Equal(got, want) || (got == nil) != (len(want) == 0) {
				t.Fatalf("%s: vertex %d drain=%v tied %v, reference %v", what, v, drain, got, want)
			}
		}
	})
}

// hotBits is the bitmap of heat's non-zero slots, built in one pass the
// way the adaptive service's SetHeat builds it.
func hotBits(heat []float32) []uint64 {
	hot := make([]uint64, (len(heat)+63)>>6)
	for i, h := range heat {
		if h != 0 {
			hot[i>>6] |= 1 << (i & 63)
		}
	}
	return hot
}

// TestScorerMatchesPlainLoop is the differential test of the one scorer:
// on directed and undirected graphs whose vertices are part clean, part
// dirty (pending overlay adds and spliced removals), with unassigned
// neighbours, every live vertex's Best and drain tallies must equal the
// plain loop's — the integer vote with no heat view, and the heat vote
// under views shorter than the slot range, over zero and non-zero heat.
func TestScorerMatchesPlainLoop(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewPCG(seed, 41))
			n := 40 + rng.IntN(60)
			g := graph.NewUndirected(n)
			if directed {
				g = graph.NewDirected(n)
			}
			var b graph.Batch
			for i := 0; i < 4*n; i++ {
				b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(rng.IntN(n)), V: graph.VertexID(rng.IntN(n))})
			}
			g.Apply(b)
			g.Compact()
			// A small batch after the compaction leaves its vertices
			// dirty and grows the slot range past the heat views below.
			b = b[:0]
			for i := 0; i < n/4; i++ {
				u := graph.VertexID(rng.IntN(n))
				if nbrs := g.Neighbors(u); i%2 == 0 && len(nbrs) > 0 {
					b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: nbrs[0]})
				} else {
					b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: graph.VertexID(rng.IntN(n + 10))})
				}
			}
			g.Apply(b)
			k := 2 + rng.IntN(4)
			asn := partition.NewAssignment(g.NumSlots(), k)
			g.ForEachVertex(func(v graph.VertexID) {
				if rng.IntN(9) != 0 {
					asn.Assign(v, partition.ID(rng.IntN(k)))
				}
			})
			what := fmt.Sprintf("directed=%v seed=%d", directed, seed)
			s := NewScorer()
			checkScorer(t, what+" integer", s, g, asn, nil, 0)
			// The adaptive service's shape: a heat slice covering only
			// part of the slot range, zero entries included.
			heat := make([]float32, n/2)
			max := 0.0
			for i := range heat {
				if rng.IntN(3) == 0 {
					heat[i] = float32(rng.IntN(50)) / 4
					max = math.Max(max, float64(heat[i]))
				}
			}
			if !s.SetHeat(heat, hotBits(heat), 3, max) {
				t.Fatalf("%s: SetHeat with heat and a positive weight left the view inactive", what)
			}
			shared := s.share()
			checkScorer(t, what+" heat", &shared, g, asn, heat, 3/max)
			checkScorer(t, what+" heat", s, g, asn, heat, 3/max)
			if s.SetHeat(heat, hotBits(heat), 0, max) {
				t.Fatalf("%s: SetHeat at weight 0 activated the view", what)
			}
			checkScorer(t, what+" weight 0", s, g, asn, nil, 0)
		}
	}
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
		checkScorer(t, what, p.scorer, p.g, p.asn, ref.heat, ref.scale)
		if len(p.shards) > 0 {
			checkScorer(t, what+" (shard scorer)", &p.shards[0].scorer, p.g, p.asn, ref.heat, ref.scale)
		}
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

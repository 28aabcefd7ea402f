package activeset

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// refPrepare is the reference drain Prepare must reproduce: drop the dead
// vertices, then sort the whole frontier.
func refPrepare(s *Set, alive func(graph.VertexID) bool) []graph.VertexID {
	live := s.frontier[:0]
	for _, v := range s.frontier {
		if alive(v) {
			live = append(live, v)
		} else {
			s.dirty[v] = false
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	s.frontier = live
	s.next = s.next[:0]
	return live
}

// TestPrepareMatchesReference drives two sets through identical random
// histories — Mark, MarkNeighborhood, UnparkDest, UnparkAll, vertex
// deaths and table growth between passes, sometimes in bursts that
// wake hundreds of vertices at once; keep/park/settle verdicts during
// each drain, closed by a sharded Rebuild whose keep lists may arrive out
// of order and then the parks — one draining with Prepare, the other
// with the reference. Every drain order, every exported state and every
// scheduled bit must agree.
func TestPrepareMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		prepareDifferential(t, seed, seed%2 == 0)
	}
}

func prepareDifferential(t *testing.T, seed uint64, directed bool) {
	const k = 3
	rng := rand.New(rand.NewPCG(seed, 0xac7))
	g := graph.NewUndirected(0)
	if directed {
		g = graph.NewDirected(0)
	}
	randVertex := func() graph.VertexID { return graph.VertexID(rng.IntN(g.NumSlots())) }
	for i := 0; i < 2048; i++ {
		g.AddVertex()
	}
	for i := 0; i < 4096; i++ {
		g.AddEdge(randVertex(), randVertex())
	}
	got, want := New(k), New(k)
	both := func(fn func(*Set)) { fn(got); fn(want) }
	both(func(s *Set) { s.Grow(g.NumSlots()) })
	for v := range g.NumSlots() {
		if rng.IntN(2) == 0 {
			both(func(s *Set) { s.Mark(graph.VertexID(v)) })
		}
	}

	for round := 0; round < 120; round++ {
		events := rng.IntN(24)
		if rng.IntN(6) == 0 {
			events = 900
		}
		for n := events; n > 0; n-- {
			v := randVertex()
			switch r := rng.IntN(100); {
			case r < 40:
				both(func(s *Set) { s.Mark(v) })
			case r < 60:
				both(func(s *Set) { s.MarkNeighborhood(g, v) })
			case r < 70:
				j := partition.ID(rng.IntN(k))
				both(func(s *Set) { s.UnparkDest(j) })
			case r < 73:
				both(func(s *Set) { s.UnparkAll() })
			case r < 83:
				g.RemoveVertex(v) // scheduled dead vertices drop at Prepare
			case r < 90:
				g.EnsureVertex(v)
				g.AddEdge(v, randVertex())
			default:
				// Grow the table; the new vertex is woken like an arrival.
				nv := g.AddVertex()
				g.AddEdge(nv, randVertex())
				both(func(s *Set) { s.Grow(g.NumSlots()) })
				both(func(s *Set) { s.Mark(nv) })
			}
		}

		fg := got.Prepare(g.Has)
		fw := refPrepare(want, g.Has)
		if !slices.Equal(fg, fw) {
			t.Fatalf("seed %d round %d: Prepare drains %v, reference %v", seed, round, fg, fw)
		}

		verdict := func() (keep bool, park []partition.ID) {
			switch r := rng.IntN(10); {
			case r < 5:
				return true, nil
			case r < 7:
				dsts := []partition.ID{partition.ID(rng.IntN(k))}
				if rng.IntN(2) == 0 {
					dsts = append(dsts, partition.ID(rng.IntN(k)))
				}
				return false, dsts
			default:
				return false, nil
			}
		}
		// Sharded drain: contiguous chunks, barrier-side Rebuild and
		// parks. Sometimes the keep lists arrive disordered, as a
		// cluster peer could send them.
		shards := 1 + rng.IntN(4)
		keeps := make([][]graph.VertexID, shards)
		type parked struct {
			v    graph.VertexID
			dsts []partition.ID
		}
		var parks []parked
		for sh := range shards {
			lo, hi := graph.ShardRange(sh, shards, len(fg))
			for _, v := range fg[lo:hi] {
				switch keep, park := verdict(); {
				case keep:
					keeps[sh] = append(keeps[sh], v)
				case park != nil:
					parks = append(parks, parked{v, park})
				}
			}
		}
		switch rng.IntN(4) {
		case 0:
			slices.Reverse(keeps)
		case 1:
			for _, keep := range keeps {
				rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
			}
		}
		both(func(s *Set) { s.Rebuild(keeps...) })
		for _, p := range parks {
			both(func(s *Set) { s.Park(p.v, p.dsts) })
		}

		if eg, ew := got.Export(), want.Export(); !reflect.DeepEqual(eg, ew) {
			t.Fatalf("seed %d round %d: exported state %+v, reference %+v", seed, round, eg, ew)
		}
		if !slices.Equal(got.dirty, want.dirty) || !slices.Equal(got.parkedBit, want.parkedBit) {
			t.Fatalf("seed %d round %d: scheduled/parked bits diverge from the reference", seed, round)
		}
	}
}

// BenchmarkPrepareFrontier measures one drain preparation in the shape
// the incremental step sees: a sorted kept prefix (the previous pass's
// keeps, in drain order) followed by vertices woken at random since.
// Each iteration restores that state — Rebuild from the kept list, which
// settles the previous iteration's wakes, then Mark the wakes — and
// prepares it.
func BenchmarkPrepareFrontier(b *testing.B) {
	const slots, kept, woken = 1 << 20, 32768, 4096
	rng := rand.New(rand.NewPCG(1, 2))
	perm := rng.Perm(slots)
	keep := make([]graph.VertexID, kept)
	for i := range keep {
		keep[i] = graph.VertexID(perm[i])
	}
	slices.Sort(keep)
	wakes := make([]graph.VertexID, woken)
	for i := range wakes {
		wakes[i] = graph.VertexID(perm[kept+i])
	}
	s := New(2)
	s.Grow(slots)
	for _, v := range keep {
		s.Mark(v)
	}
	live := func(graph.VertexID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rebuild(keep)
		for _, v := range wakes {
			s.Mark(v)
		}
		s.Prepare(live)
	}
}

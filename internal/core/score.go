package core

import (
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Scorer is the heuristic's decision rule (Section 2.1), written once for
// every schedule — the full, incremental and cluster sweeps here and the
// BSP-side service in internal/adaptive: a vertex v
// requests the partitions holding the most of Γ(v) = {v} ∪ N(v), and
// stays when its own partition is among them. On digraphs both directions
// count, since a cut edge costs communication whichever way messages flow.
//
// A Scorer owns per-goroutine scratch, and shares a read-only heat view
// with the scorers made from it by share. With the view inactive every
// member of Γ(v) votes 1 and the tally is integer; with it active (see
// heat.go) a member w votes 1 + WorkloadWeight·heat(w)/max(heat), summed
// in float64 in graph.AdjacencyChunks order. The integer tally stays
// because the paper's objective is the common case, and tallying it in
// float64 instead is measurably slower on BenchmarkStepPowerLaw. The two
// tallies walk the same runs in the same order and share the argmax; they
// are two functions, chosen once per vertex, because one walk that picks
// the vote type after fetching the runs measured slower on
// BenchmarkCoreIterationPowerLaw.
//
// The zero value is not ready; use NewScorer.
type Scorer struct {
	counts  []int
	countsF []float64
	tied    []partition.ID
	view    *heatView
}

// heatView is the heat-weighted vote's input, frozen between folds: the
// per-slot accumulator, the bitmap of its non-zero slots (heat is loaded
// only where the bit is set; every other member, including one past the
// end of heat, votes cold) and the vote multiplier, 0 when inactive.
type heatView struct {
	heat  []float32
	hot   []uint64
	scale float64
}

// NewScorer returns a scorer with an inactive heat view. Its scratch is
// sized from the assignment's k on first use.
func NewScorer() *Scorer { return &Scorer{view: &heatView{}} }

// share returns a scorer with its own scratch and s's heat view, for a
// goroutine scoring alongside s. Its owner embeds it by value: a tally
// writes the scratch headers on every call, and two scorers allocated
// side by side would share a cache line between goroutines.
func (s *Scorer) share() Scorer { return Scorer{view: s.view} }

// SetHeat installs the heat view of s and of every scorer sharing it.
// hot must have a bit set for exactly the non-zero entries of heat, and
// max is heat's maximum. Votes are 1 + weight·heat/max, so the multiplier
// is weight/max, and the view is inactive unless both are positive. It
// reports whether the view is active.
func (s *Scorer) SetHeat(heat []float32, hot []uint64, weight, max float64) bool {
	scale := 0.0
	if weight > 0 && max > 0 {
		scale = weight / max
	}
	*s.view = heatView{heat: heat, hot: hot, scale: scale}
	return scale != 0
}

// Best returns the partitions v requests: the argmax of its Γ(v) tally,
// or nil when cur is among them (the heuristic prefers to stay). v's
// self-vote is always 1, even when v is hot: co-location with itself is
// free, so inflating it would only anchor hot vertices in place. The
// result is the scorer's scratch, valid until its next call.
func (s *Scorer) Best(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID) []partition.ID {
	if s.view.scale != 0 {
		s.tied = argmax(s.tallyHeat(g, asn, v, cur, 1), cur, s.tied)
	} else {
		s.tied = argmax(s.tally(g, asn, v, cur, 1), cur, s.tied)
	}
	if len(s.tied) == 0 {
		return nil
	}
	return s.tied
}

// BestOther is the hot-spot drain's form of Best: the same tally without
// the self-vote, and the argmax over every partition but cur, for a vertex
// that must leave an overloaded partition even when staying is optimal.
// It returns nil only when cur is the only partition.
func (s *Scorer) BestOther(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID) []partition.ID {
	if s.view.scale != 0 {
		s.tied = drainArgmax(s.tallyHeat(g, asn, v, cur, 0), cur, s.tied)
	} else {
		s.tied = drainArgmax(s.tally(g, asn, v, cur, 0), cur, s.tied)
	}
	if len(s.tied) == 0 {
		return nil
	}
	return s.tied
}

// tally returns the integer tally of Γ(v): self votes for cur, then one
// vote per placed neighbour, out-runs first and then, on digraphs,
// in-runs, each base span before its overlay adds.
func (s *Scorer) tally(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, self int) []int {
	if k := asn.K(); len(s.counts) != k {
		s.counts, s.countsF = make([]int, k), make([]float64, k)
	}
	counts := s.counts
	clear(counts)
	counts[cur] = self
	base, adds := g.AdjacencyChunks(v, false)
	tallyRun(counts, asn, base)
	tallyRun(counts, asn, adds)
	if g.Directed() {
		base, adds = g.AdjacencyChunks(v, true)
		tallyRun(counts, asn, base)
		tallyRun(counts, asn, adds)
	}
	return counts
}

// tallyHeat is tally with heat-weighted votes, summed in float64 in the
// same order: the order is part of the result.
func (s *Scorer) tallyHeat(g *graph.Graph, asn *partition.Assignment, v graph.VertexID, cur partition.ID, self float64) []float64 {
	if k := asn.K(); len(s.counts) != k {
		s.counts, s.countsF = make([]int, k), make([]float64, k)
	}
	countsF := s.countsF
	clear(countsF)
	countsF[cur] = self
	h := s.view
	base, adds := g.AdjacencyChunks(v, false)
	h.tallyRun(countsF, asn, base)
	h.tallyRun(countsF, asn, adds)
	if g.Directed() {
		base, adds = g.AdjacencyChunks(v, true)
		h.tallyRun(countsF, asn, base)
		h.tallyRun(countsF, asn, adds)
	}
	return countsF
}

// tallyRun adds one vote for each placed member of run.
func tallyRun(counts []int, asn *partition.Assignment, run []graph.VertexID) {
	for _, w := range run {
		if pw := asn.Of(w); pw != partition.None {
			counts[pw]++
		}
	}
}

// tallyRun adds each placed member's heat-weighted vote to countsF.
func (h *heatView) tallyRun(countsF []float64, asn *partition.Assignment, run []graph.VertexID) {
	// 1 for any finite scale; computed rather than written as a
	// constant so a cold vote is the one a heat load would give.
	cold := 1 + h.scale*0
	for _, w := range run {
		if pw := asn.Of(w); pw != partition.None {
			vote := cold
			if i := uint(w); i>>6 < uint(len(h.hot)) && h.hot[i>>6]&(1<<(i&63)) != 0 {
				vote = 1 + h.scale*float64(h.heat[i])
			}
			countsF[pw] += vote
		}
	}
}

// argmax returns tied holding the partitions with the highest count, or
// empty when cur is among them. The maximum starts at 0 because every
// Best tally holds the self-vote; its loop stays branch-free on the
// counts, since it runs once per decision over all k partitions.
func argmax[C int | float64](counts []C, cur partition.ID, tied []partition.ID) []partition.ID {
	var max C
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	tied = tied[:0]
	if counts[cur] == max {
		return tied
	}
	for i, c := range counts {
		if c == max {
			tied = append(tied, partition.ID(i))
		}
	}
	return tied
}

// drainArgmax is argmax over every partition but cur, starting from the
// first of them; it is empty only when cur is the only partition.
func drainArgmax[C int | float64](counts []C, cur partition.ID, tied []partition.ID) []partition.ID {
	tied = tied[:0]
	first := 0
	if cur == 0 {
		first = 1
	}
	if first == len(counts) {
		return tied
	}
	max := counts[first]
	for i, c := range counts {
		if c > max && partition.ID(i) != cur {
			max = c
		}
	}
	for i, c := range counts {
		if c == max && partition.ID(i) != cur {
			tied = append(tied, partition.ID(i))
		}
	}
	return tied
}

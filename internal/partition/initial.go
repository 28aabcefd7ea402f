package partition

import (
	"fmt"
	"math"
	"math/rand"

	"xdgp/internal/graph"
)

// Strategy names an initial partitioning strategy from Section 4.2.1.
type Strategy string

// The four initial strategies the paper compares, plus two further
// streaming heuristics from the paper's reference [35] (Stanton & Kliot,
// KDD'12) available to experiments beyond the paper's set.
const (
	HSH Strategy = "HSH" // hash partitioning, H(v) mod k
	RND Strategy = "RND" // balanced pseudorandom
	DGR Strategy = "DGR" // linear deterministic greedy (Stanton–Kliot)
	MNN Strategy = "MNN" // minimum number of neighbours (Prabhakaran et al.)
	UDG Strategy = "UDG" // unweighted deterministic greedy (Stanton–Kliot)
	EDG Strategy = "EDG" // exponentially-weighted deterministic greedy (Stanton–Kliot)
)

// Strategies returns the paper's four strategies in its plotting order.
func Strategies() []Strategy { return []Strategy{DGR, HSH, MNN, RND} }

// AllStrategies additionally includes the extra Stanton–Kliot heuristics.
func AllStrategies() []Strategy { return []Strategy{DGR, HSH, MNN, RND, UDG, EDG} }

// Initial computes an initial assignment of g over k partitions using the
// named strategy. capFactor bounds partition sizes to capFactor × balanced
// load for the capacity-aware streaming strategies (DGR, MNN); HSH ignores
// capacities, exactly as in practice ("it does not guarantee adaptation"),
// and RND is balanced by construction. seed drives the pseudorandom
// choices (RND shuffling, streaming tie-breaks).
func Initial(strategy Strategy, g *graph.Graph, k int, capFactor float64, seed int64) (*Assignment, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("partition: k must be in [1, %d], got %d", MaxK, k)
	}
	switch strategy {
	case HSH:
		return Hash(g, k), nil
	case RND:
		return Random(g, k, seed), nil
	case DGR:
		return LinearGreedy(g, k, capFactor, seed), nil
	case MNN:
		return MinNeighbors(g, k, capFactor, seed), nil
	case UDG:
		return deterministicGreedy(g, k, capFactor, seed, func(count int, fill float64) float64 {
			return float64(count) // unweighted: capacity only gates, never scores
		}), nil
	case EDG:
		return deterministicGreedy(g, k, capFactor, seed, func(count int, fill float64) float64 {
			return float64(count) * (1 - math.Exp(fill-1)) // exponential penalty
		}), nil
	default:
		return nil, fmt.Errorf("partition: unknown strategy %q", strategy)
	}
}

// Hash assigns every vertex v to partition H(v) mod k. With dense integer
// IDs the multiplicative hash below scatters consecutive IDs uniformly,
// matching the lightweight lookup-free strategy "most commonly used in
// large scale graph processing systems".
func Hash(g *graph.Graph, k int) *Assignment {
	a := NewAssignment(g.NumSlots(), k)
	g.ForEachVertex(func(v graph.VertexID) {
		a.Assign(v, HashVertex(v, k))
	})
	return a
}

// HashVertex is the hash placement rule for a single vertex, shared with
// the dynamic-placement path of the heuristic (new vertices arriving from
// the stream are hash-placed before the algorithm adapts them).
func HashVertex(v graph.VertexID, k int) ID {
	x := uint64(uint32(v))
	// SplitMix64 finaliser — avalanche so consecutive IDs spread evenly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return ID(x % uint64(k))
}

// Random shuffles the vertices and deals them round-robin, producing the
// balanced pseudorandom partitioning (RND) of the paper.
func Random(g *graph.Graph, k int, seed int64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	ids := g.Vertices()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	a := NewAssignment(g.NumSlots(), k)
	for i, v := range ids {
		a.Assign(v, ID(i%k))
	}
	return a
}

// LinearGreedy implements the stream-based "linear deterministic greedy"
// heuristic of Stanton & Kliot (KDD'12): each arriving vertex goes to the
// partition maximising |N(v) ∩ P(i)| · (1 − |P(i)|/C(i)). Ties break on
// the smaller partition, then uniformly at random (seeded).
func LinearGreedy(g *graph.Graph, k int, capFactor float64, seed int64) *Assignment {
	return deterministicGreedy(g, k, capFactor, seed, func(count int, fill float64) float64 {
		return float64(count) * (1 - fill)
	})
}

// deterministicGreedy is the shared streaming skeleton of the Stanton–
// Kliot deterministic-greedy family: vertices arrive in order and each is
// scored against every non-full partition by score(placed-neighbour count,
// fill fraction). Ties break on the smaller partition, then uniformly at
// random (seeded).
func deterministicGreedy(g *graph.Graph, k int, capFactor float64, seed int64, score func(count int, fill float64) float64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	caps := UniformCapacities(g.NumVertices(), k, capFactor)
	a := NewAssignment(g.NumSlots(), k)
	counts := make([]int, k)
	best := make([]ID, 0, k)
	g.ForEachVertex(func(v graph.VertexID) {
		for i := range counts {
			counts[i] = 0
		}
		for _, w := range g.Neighbors(v) {
			if p := a.Of(w); p != None {
				counts[p]++
			}
		}
		bestScore := -1.0
		best = best[:0]
		for p := 0; p < k; p++ {
			if a.Size(ID(p)) >= caps[p] {
				continue
			}
			s := score(counts[p], float64(a.Size(ID(p)))/float64(caps[p]))
			switch {
			case s > bestScore:
				bestScore = s
				best = append(best[:0], ID(p))
			case s == bestScore:
				best = append(best, ID(p))
			}
		}
		if len(best) == 0 {
			// All partitions full (possible only with capFactor < 1+ε
			// rounding); fall back to least loaded.
			a.Assign(v, leastLoaded(a))
			return
		}
		// Prefer the emptier partition among ties, then random.
		choice := best[0]
		minSize := a.Size(choice)
		tied := []ID{choice}
		for _, p := range best[1:] {
			switch s := a.Size(p); {
			case s < minSize:
				minSize = s
				tied = append(tied[:0], p)
			case s == minSize:
				tied = append(tied, p)
			}
		}
		a.Assign(v, tied[rng.Intn(len(tied))])
	})
	return a
}

// MinNeighbors implements the stream-based "minimum number of neighbours"
// heuristic the paper attributes to Prabhakaran et al. (ATC'12): each
// arriving vertex goes to the candidate partition holding the minimum
// non-zero number of its already-placed neighbours; vertices with no
// placed neighbours go to the least-loaded partition. Capacities cap
// every choice. (See DESIGN.md §7 for this interpretation.)
func MinNeighbors(g *graph.Graph, k int, capFactor float64, seed int64) *Assignment {
	rng := rand.New(rand.NewSource(seed))
	caps := UniformCapacities(g.NumVertices(), k, capFactor)
	a := NewAssignment(g.NumSlots(), k)
	counts := make([]int, k)
	g.ForEachVertex(func(v graph.VertexID) {
		for i := range counts {
			counts[i] = 0
		}
		placed := false
		for _, w := range g.Neighbors(v) {
			if p := a.Of(w); p != None {
				counts[p]++
				placed = true
			}
		}
		var tied []ID
		if placed {
			bestCount := -1
			for p := 0; p < k; p++ {
				if counts[p] == 0 || a.Size(ID(p)) >= caps[p] {
					continue
				}
				switch {
				case bestCount == -1 || counts[p] < bestCount:
					bestCount = counts[p]
					tied = append(tied[:0], ID(p))
				case counts[p] == bestCount:
					tied = append(tied, ID(p))
				}
			}
		}
		if len(tied) == 0 {
			// No placed neighbours (or all candidates full): least loaded
			// below capacity.
			minSize := -1
			for p := 0; p < k; p++ {
				if a.Size(ID(p)) >= caps[p] {
					continue
				}
				switch s := a.Size(ID(p)); {
				case minSize == -1 || s < minSize:
					minSize = s
					tied = append(tied[:0], ID(p))
				case s == minSize:
					tied = append(tied, ID(p))
				}
			}
		}
		if len(tied) == 0 {
			a.Assign(v, leastLoaded(a))
			return
		}
		a.Assign(v, tied[rng.Intn(len(tied))])
	})
	return a
}

func leastLoaded(a *Assignment) ID {
	best := ID(0)
	for p := 1; p < a.K(); p++ {
		if a.Size(ID(p)) < a.Size(best) {
			best = ID(p)
		}
	}
	return best
}

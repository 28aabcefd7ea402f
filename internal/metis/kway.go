package metis

import (
	"fmt"
	"math"
	"math/rand"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Options tunes the multilevel partitioner. The zero value is invalid; use
// DefaultOptions.
type Options struct {
	// Imbalance is the allowed load-imbalance factor (1.10 matches the
	// paper's 110 % capacity setting).
	Imbalance float64
	// CoarsestSize stops coarsening once a level has at most this many
	// vertices.
	CoarsestSize int
	// Tries is the number of random initial bisections per split; the best
	// refined cut wins.
	Tries int
	// Seed drives all randomised choices.
	Seed int64

	// levelImbalance is the per-bisection budget derived from Imbalance;
	// computed internally by PartitionKWay.
	levelImbalance float64
}

// DefaultOptions returns the configuration used by the experiment harness.
func DefaultOptions(seed int64) Options {
	return Options{Imbalance: 1.10, CoarsestSize: 240, Tries: 4, Seed: seed}
}

// PartitionKWay computes a balanced k-way partitioning of g by multilevel
// recursive bisection and returns it as an assignment table.
func PartitionKWay(g *graph.Graph, k int, opts Options) (*partition.Assignment, error) {
	if k < 1 || k > partition.MaxK {
		return nil, fmt.Errorf("metis: k must be in [1, %d], got %d", partition.MaxK, k)
	}
	if opts.Imbalance < 1.0 {
		return nil, fmt.Errorf("metis: imbalance factor must be ≥ 1.0, got %g", opts.Imbalance)
	}
	if opts.CoarsestSize <= 0 {
		opts.CoarsestSize = 240
	}
	if opts.Tries <= 0 {
		opts.Tries = 1
	}
	a := partition.NewAssignment(g.NumSlots(), k)
	if g.NumVertices() == 0 {
		return a, nil
	}
	// Recursive bisection compounds imbalance across levels, so each level
	// gets the depth-th root of the overall budget.
	depth := 0
	for 1<<depth < k {
		depth++
	}
	if depth > 0 {
		opts.levelImbalance = math.Pow(opts.Imbalance, 1/float64(depth))
	} else {
		opts.levelImbalance = opts.Imbalance
	}
	if opts.levelImbalance < 1.01 {
		opts.levelImbalance = 1.01
	}
	wg, ids := fromGraph(g)
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make([]int32, wg.n())
	rb(wg, identity(wg.n()), k, 0, out, rng, opts)
	for i, v := range ids {
		a.Assign(v, partition.ID(out[i]))
	}
	return a, nil
}

func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// rb recursively bisects wg (whose vertices map to original indices via
// toOrig) into k parts numbered firstPart..firstPart+k-1, writing results
// into out (indexed by original vertex index).
func rb(wg *wgraph, toOrig []int32, k int, firstPart int32, out []int32, rng *rand.Rand, opts Options) {
	if k == 1 {
		for _, o := range toOrig {
			out[o] = firstPart
		}
		return
	}
	kl := k / 2
	kr := k - kl
	total := wg.totalVW()
	target0 := total * int64(kl) / int64(k)
	part := multilevelBisect(wg, target0, total-target0, rng, opts)

	var leftLocal, rightLocal []int32
	for v := int32(0); v < int32(wg.n()); v++ {
		if part[v] == 0 {
			leftLocal = append(leftLocal, v)
		} else {
			rightLocal = append(rightLocal, v)
		}
	}
	leftWG, leftVerts := wg.subgraph(leftLocal)
	rightWG, rightVerts := wg.subgraph(rightLocal)
	leftOrig := make([]int32, len(leftVerts))
	for i, lv := range leftVerts {
		leftOrig[i] = toOrig[lv]
	}
	rightOrig := make([]int32, len(rightVerts))
	for i, rv := range rightVerts {
		rightOrig[i] = toOrig[rv]
	}
	rb(leftWG, leftOrig, kl, firstPart, out, rng, opts)
	rb(rightWG, rightOrig, kr, firstPart+int32(kl), out, rng, opts)
}

// multilevelBisect computes a bipartition of wg with side-0 weight near
// target0: coarsen, bisect the coarsest level (best of opts.Tries), then
// project back up refining with FM at every level.
func multilevelBisect(wg *wgraph, target0, target1 int64, rng *rand.Rand, opts Options) []uint8 {
	levels, maps := coarsenTo(wg, opts.CoarsestSize, rng)
	coarsest := levels[len(levels)-1]
	maxW := [2]int64{
		int64(float64(target0) * opts.levelImbalance),
		int64(float64(target1) * opts.levelImbalance),
	}
	// Weights must be feasible: a side must at least fit the heaviest
	// vertex, and rounding slack of +1 avoids degenerate zero targets.
	for s := 0; s < 2; s++ {
		if maxW[s] <= 0 {
			maxW[s] = 1
		}
	}

	var best []uint8
	var bestCut int64 = -1
	for try := 0; try < opts.Tries; try++ {
		part := growBisect(coarsest, target0, rng)
		fmRefine(coarsest, part, maxW, rng)
		cut := coarsest.cutWeight(part)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = part
		}
	}

	// Project back to the finest level, refining at each step.
	part := best
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := maps[lvl]
		finePart := make([]uint8, fine.n())
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		fmRefine(fine, finePart, maxW, rng)
		part = finePart
	}
	return part
}

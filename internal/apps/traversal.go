package apps

import (
	"math"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
)

// SSSP computes single-source shortest hop counts in the classic Pregel
// formulation: the source floods distance 0, every vertex keeps the
// minimum distance seen and propagates distance+1, and the computation
// halts when no distance improves. Used by tests and examples as a
// ground-truth-checkable workload.
type SSSP struct {
	Source graph.VertexID
}

// NewSSSP returns the program rooted at source.
func NewSSSP(source graph.VertexID) *SSSP { return &SSSP{Source: source} }

// Init assigns +Inf everywhere except the source.
func (s *SSSP) Init(ctx *bsp.VertexContext[float64]) any {
	if ctx.ID() == s.Source {
		return 0.0
	}
	return math.Inf(1)
}

// Compute relaxes incoming distances and halts when stable.
func (s *SSSP) Compute(ctx *bsp.VertexContext[float64], msgs []float64) {
	dist := ctx.Value().(float64)
	best := dist
	for _, d := range msgs {
		best = min(best, d)
	}
	improved := best < dist
	if improved {
		ctx.SetValue(best)
	}
	// The source must flood once at superstep 0.
	if improved || (ctx.Superstep() == 0 && ctx.ID() == s.Source) {
		ctx.SendToNeighbors(best + 1)
	}
	ctx.VoteToHalt()
}

// CombineMessages keeps only the minimum candidate distance (combiner).
func (s *SSSP) CombineMessages(a, b float64) float64 { return min(a, b) }

var (
	_ bsp.Program[float64]         = (*SSSP)(nil)
	_ bsp.MessageCombiner[float64] = (*SSSP)(nil)
)

// WCC computes weakly connected components by min-label propagation: each
// vertex adopts the smallest vertex ID it has heard of and halts when its
// label stops changing. On undirected graphs the result is the connected
// components.
type WCC struct{}

// NewWCC returns the program.
func NewWCC() *WCC { return &WCC{} }

// Init labels every vertex with itself.
func (w *WCC) Init(ctx *bsp.VertexContext[int64]) any { return int64(ctx.ID()) }

// Compute adopts the minimum heard label and propagates improvements.
func (w *WCC) Compute(ctx *bsp.VertexContext[int64], msgs []int64) {
	label := ctx.Value().(int64)
	best := label
	for _, l := range msgs {
		best = min(best, l)
	}
	if best < label || ctx.Superstep() == 0 {
		ctx.SetValue(best)
		ctx.SendToNeighbors(best)
	}
	ctx.VoteToHalt()
}

// CombineMessages keeps only the minimum candidate label (combiner).
func (w *WCC) CombineMessages(a, b int64) int64 { return min(a, b) }

var (
	_ bsp.Program[int64]         = (*WCC)(nil)
	_ bsp.MessageCombiner[int64] = (*WCC)(nil)
)

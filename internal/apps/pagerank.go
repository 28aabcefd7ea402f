package apps

import (
	"xdgp/internal/bsp"
)

// PageRank computes R rounds of the classic damped PageRank and halts. The
// paper's introduction motivates partitioning quality with exactly this
// class of content-ranking random-walk algorithms.
type PageRank struct {
	// N is the vertex count used for the uniform prior (fixed at start;
	// PageRank is run on frozen topology).
	N int
	// Rounds is the number of power iterations before halting.
	Rounds int
	// Damping is the damping factor (0.85 classically).
	Damping float64
}

// NewPageRank returns a PageRank program with the classic damping of 0.85.
func NewPageRank(n, rounds int) *PageRank {
	return &PageRank{N: n, Rounds: rounds, Damping: 0.85}
}

// Init gives every vertex the uniform prior 1/N.
func (p *PageRank) Init(ctx *bsp.VertexContext[float64]) any { return 1 / float64(p.N) }

// Compute implements one power-iteration step per superstep.
func (p *PageRank) Compute(ctx *bsp.VertexContext[float64], msgs []float64) {
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, x := range msgs {
			sum += x
		}
		ctx.SetValue((1-p.Damping)/float64(p.N) + p.Damping*sum)
	}
	if ctx.Superstep() < p.Rounds {
		if d := ctx.Degree(); d > 0 {
			share := ctx.Value().(float64) / float64(d)
			ctx.SendToNeighbors(share)
		}
	} else {
		ctx.VoteToHalt()
	}
}

// CombineMessages sums rank contributions at the sender (Pregel combiner),
// cutting message volume on high-degree destinations.
func (p *PageRank) CombineMessages(a, b float64) float64 { return a + b }

var (
	_ bsp.Program[float64]         = (*PageRank)(nil)
	_ bsp.MessageCombiner[float64] = (*PageRank)(nil)
)

package apps

import "xdgp/internal/bsp"

// TunkRank estimates Twitter user influence on a mention graph — "a
// Twitter analog to PageRank" (Tunkelang 2009), the algorithm the paper
// runs continuously over its London tweet stream (Section 4.3, Figure 8).
//
// The mention graph is directed: an edge a→b means a mentioned b. The
// influence of b accrues from every mentioner a as (1 + p·I(a)) / out(a),
// where p is the retweet probability. The program never votes to halt: it
// recomputes continuously as the stream mutates the graph, exactly the
// paper's continuous-processing mode.
type TunkRank struct {
	// P is the probability that a mention is retweeted/propagated.
	P float64
}

// NewTunkRank returns the program with the conventional p = 0.5.
func NewTunkRank() *TunkRank { return &TunkRank{P: 0.5} }

// Init starts every user with zero influence.
func (t *TunkRank) Init(ctx *bsp.VertexContext[float64]) any { return 0.0 }

// Compute folds incoming mention contributions into the influence estimate
// and forwards this vertex's contribution to everyone it mentions.
func (t *TunkRank) Compute(ctx *bsp.VertexContext[float64], msgs []float64) {
	if ctx.Superstep() > 0 {
		inf := 0.0
		for _, x := range msgs {
			inf += x
		}
		ctx.SetValue(inf)
		ctx.Aggregate("tunkrank.total", inf)
	}
	if d := ctx.Degree(); d > 0 {
		contribution := (1 + t.P*ctx.Value().(float64)) / float64(d)
		ctx.SendToNeighbors(contribution)
	}
	// Never halts: the system processes the stream continuously.
}

// CombineMessages sums influence contributions at the sender, the natural
// combiner for a celebrity receiving thousands of mentions per superstep.
func (t *TunkRank) CombineMessages(a, b float64) float64 { return a + b }

var (
	_ bsp.Program[float64]         = (*TunkRank)(nil)
	_ bsp.MessageCombiner[float64] = (*TunkRank)(nil)
)

// Package bsp implements the Pregel-inspired distributed graph processing
// engine the paper integrates its adaptive partitioner into (Section 3):
// workers execute vertex programs in synchronous supersteps, messages sent
// in superstep t are delivered in t+1, vertices vote to halt, and — unlike
// classic Pregel — the computation runs continuously while vertices and
// edges are injected or removed from a stream.
//
// The engine simulates a cluster in-process. The k partitions are the
// simulated machines: a deterministic cost clock charges each partition
// for its compute, local messages, remote messages and vertex migrations
// so that "time per superstep" can be reported and normalised exactly the
// way the paper does. Compute parallelism is decoupled from k: any number
// of worker goroutines (Config.Workers) sweep the vertex set in contiguous
// slot shards, and the simulated statistics are identical for every worker
// count. Vertex migration follows the paper's deferred protocol: a
// migration decided at the barrier of superstep t redirects new messages
// from t+1 onwards, while the vertex computes one final superstep on its
// old worker and physically moves at the next barrier, so no message is
// ever lost (paper Figure 3).
package bsp

import "xdgp/internal/graph"

// Program is a vertex program in the Pregel model. Implementations must be
// safe for concurrent Compute calls on different vertices (workers run in
// parallel); per-vertex state belongs in the vertex value.
type Program interface {
	// Init returns the initial value for a vertex joining the computation
	// (at load time or on stream injection).
	Init(ctx *VertexContext) any
	// Compute processes the messages delivered to the vertex this
	// superstep. It may read and set the vertex value, send messages and
	// vote to halt. msgs is valid only for the duration of the call: the
	// engine reuses its buffer every superstep, so Compute must neither
	// retain the slice nor modify it (copy what must outlive the call).
	Compute(ctx *VertexContext, msgs []any)
}

// CostDeclarer is optionally implemented by programs whose per-vertex
// compute is expensive relative to messaging (e.g. the cardiac FEM
// workload evaluates tens of differential equations per vertex). The
// returned factor scales the cost clock's per-vertex charge.
type CostDeclarer interface {
	CostPerVertex() float64
}

// ValueCloner is optionally implemented by programs whose vertex values
// are mutable reference types; Clone is used when checkpointing so that
// recovery restores unaliased state. Programs with immutable or value-type
// vertex values do not need it.
type ValueCloner interface {
	CloneValue(v any) any
}

// VertexContext is the per-vertex API handed to Program methods. A context
// is only valid for the duration of the call that received it.
type VertexContext struct {
	engine    *Engine
	worker    *worker
	id        graph.VertexID
	superstep int
}

// ID returns the vertex this context addresses.
func (c *VertexContext) ID() graph.VertexID { return c.id }

// Superstep returns the current superstep index (0-based).
func (c *VertexContext) Superstep() int { return c.superstep }

// Value returns the vertex's current value.
func (c *VertexContext) Value() any { return c.engine.values[c.id] }

// SetValue replaces the vertex's value.
func (c *VertexContext) SetValue(v any) { c.engine.values[c.id] = v }

// Degree returns the vertex's out-degree.
func (c *VertexContext) Degree() int { return c.engine.g.Degree(c.id) }

// Neighbors returns the vertex's out-neighbours. For vertices untouched
// since the last arena compaction this is a zero-copy view of the graph's
// CSR arena (the common case — mutations fold in at the superstep
// barrier); recently-mutated vertices materialise a fresh slice. Either
// way the slice must not be mutated or retained; allocation-averse
// programs iterate with NeighborCursor instead.
func (c *VertexContext) Neighbors() []graph.VertexID { return c.engine.g.Neighbors(c.id) }

// NeighborCursor returns an allocation-free iterator over the vertex's
// out-neighbours, the form SendToNeighbors itself uses.
func (c *VertexContext) NeighborCursor() graph.Cursor { return c.engine.g.NeighborCursor(c.id) }

// InNeighbors returns the vertex's in-neighbours (same as Neighbors on
// undirected graphs). Same ownership contract as Neighbors.
func (c *VertexContext) InNeighbors() []graph.VertexID { return c.engine.g.InNeighbors(c.id) }

// SendTo sends a message to the given vertex, for delivery next superstep.
// Messages to vertices that no longer exist at delivery time are dropped,
// matching Pregel semantics for concurrent removals.
func (c *VertexContext) SendTo(dst graph.VertexID, msg any) {
	c.worker.send(c.engine, dst, msg)
}

// SendToNeighbors sends the message to every out-neighbour.
func (c *VertexContext) SendToNeighbors(msg any) {
	for cur := c.engine.g.NeighborCursor(c.id); ; {
		chunk := cur.NextChunk()
		if chunk == nil {
			return
		}
		for _, w := range chunk {
			c.worker.send(c.engine, w, msg)
		}
	}
}

// TopologyChanged reports whether the graph changed in the vertex's
// immediate neighbourhood at the previous barrier: an incident edge was
// added or removed, the vertex itself just arrived from the stream, or a
// neighbour was removed (taking its edges with it). It is the
// program-facing twin of View.MutatedVertices — streaming programs use it
// to trigger targeted repair (re-flood, invalidation) instead of
// recomputing from scratch. The notice is visible for exactly one
// superstep; vertices holding one are always activated for it.
func (c *VertexContext) TopologyChanged() bool { return c.engine.mutNotice[c.id] }

// HasNeighbor reports whether w is currently an out-neighbour of the
// vertex. Streaming programs use it to validate derivations (e.g. a
// shortest-path parent) against the post-mutation topology.
func (c *VertexContext) HasNeighbor(w graph.VertexID) bool {
	return c.engine.g.HasEdge(c.id, w)
}

// NumVertices returns the number of live vertices in the graph — the
// bound incremental SSSP uses to cut count-to-infinity walks short.
func (c *VertexContext) NumVertices() int { return c.engine.g.NumVertices() }

// VoteToHalt deactivates the vertex; it reactivates when a message arrives
// or an incident mutation occurs.
func (c *VertexContext) VoteToHalt() { c.engine.halted[c.id] = true }

// Aggregate adds v into the named float sum aggregator; the merged value
// of superstep t is readable in t+1 via Aggregated.
func (c *VertexContext) Aggregate(name string, v float64) {
	c.worker.aggPartial[name] += v
}

// AggregateMax folds v into the named max aggregator; the merged value of
// superstep t is readable in t+1 via Aggregated.
func (c *VertexContext) AggregateMax(name string, v float64) {
	if cur, ok := c.worker.aggMaxPartial[name]; !ok || v > cur {
		c.worker.aggMaxPartial[name] = v
	}
}

// Aggregated returns the named aggregator's merged value from the previous
// superstep (0 if never aggregated).
func (c *VertexContext) Aggregated(name string) float64 {
	return c.engine.aggregated[name]
}

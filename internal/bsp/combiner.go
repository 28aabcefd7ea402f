package bsp

import "xdgp/internal/graph"

// MessageCombiner is optionally implemented by programs whose messages can
// be merged commutatively and associatively (Pregel's combiners): sums for
// PageRank contributions, minima for shortest paths. When a program
// declares a combiner, the engine folds messages to the same destination
// together at the *sender*, before they are priced by the cost clock — the
// same network saving a real Pregel combiner buys. The operands are the
// program's own message type, so a combiner never meets a foreign value.
type MessageCombiner[M any] interface {
	CombineMessages(a, b M) M
}

// combine folds msg into the worker's outbox entry for the current source
// partition and dst if one already exists, and reports whether it did.
// Messages from different source partitions never fold here — they are
// distinct simulated machines; the engine completes each partition's fold
// across workers at the barrier. The per-superstep index map makes the
// lookup O(1).
func (w *worker[M]) combine(dst graph.VertexID, msg M) bool {
	idx, ok := w.combineIdx[mergeKey{src: w.srcPart, dst: dst}]
	if !ok {
		return false
	}
	slot := &w.outbox[idx.part][idx.pos]
	slot.msg = w.combiner.CombineMessages(slot.msg, msg)
	return true
}

// combineRef locates an outbox entry (destination partition, position) for
// in-place combining.
type combineRef struct {
	part int
	pos  int
}

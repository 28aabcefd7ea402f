package bsp

import (
	"slices"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// checkpoint is a full synchronous snapshot of engine state, in the Pregel
// style: on worker failure the whole computation rolls back to the last
// checkpoint and replays. (The paper's Twitter experiment shows exactly
// this: "The sudden drop in throughput and superstep time is due to a
// failure in one of the workers that led to the triggering of recovery
// mechanism.")
//
// Limitation, documented: the mutation stream is not rewound on recovery,
// so batches consumed between the checkpoint and the failure are dropped —
// the graph state is internally consistent but momentarily behind the
// stream, which is exactly the throughput dip the paper's Figure 8 shows.
type checkpoint struct {
	superstep   int
	g           *graph.Graph
	addr        *partition.Assignment
	home        []int32
	values      []any
	halted      []bool
	inbox       []any
	inboxOff    []int32
	inboxLen    []int32
	mutNotice   []bool
	lastMutated []graph.VertexID
	pendingHome map[graph.VertexID]partition.ID
	aggregated  map[string]float64
}

// snapshot captures the engine's complete state.
func (e *Engine) snapshot() {
	cp := &checkpoint{
		superstep:   e.superstep,
		g:           e.g.Clone(),
		addr:        e.addr.Clone(),
		home:        append([]int32(nil), e.home...),
		halted:      append([]bool(nil), e.halted...),
		mutNotice:   append([]bool(nil), e.mutNotice...),
		lastMutated: append([]graph.VertexID(nil), e.lastMutated...),
		values:      make([]any, len(e.values)),
		inbox:       slices.Clone(e.inbox),
		inboxOff:    slices.Clone(e.inboxOff),
		inboxLen:    slices.Clone(e.inboxLen),
		pendingHome: make(map[graph.VertexID]partition.ID, len(e.pendingHome)),
		aggregated:  make(map[string]float64, len(e.aggregated)),
	}
	cloner, hasCloner := e.prog.(ValueCloner)
	for i, v := range e.values {
		if hasCloner && v != nil {
			cp.values[i] = cloner.CloneValue(v)
		} else {
			cp.values[i] = v
		}
	}
	for k, v := range e.pendingHome {
		cp.pendingHome[k] = v
	}
	for k, v := range e.aggregated {
		cp.aggregated[k] = v
	}
	e.cp = cp
}

// restore rolls the engine back to the last checkpoint. The caller must
// have verified a checkpoint exists.
func (e *Engine) restore() {
	cp := e.cp
	e.superstep = cp.superstep
	e.g = cp.g.Clone()
	e.addr = cp.addr.Clone()
	e.home = append([]int32(nil), cp.home...)
	e.halted = append([]bool(nil), cp.halted...)
	e.mutNotice = append([]bool(nil), cp.mutNotice...)
	e.lastMutated = append([]graph.VertexID(nil), cp.lastMutated...)
	e.values = make([]any, len(cp.values))
	cloner, hasCloner := e.prog.(ValueCloner)
	for i, v := range cp.values {
		if hasCloner && v != nil {
			e.values[i] = cloner.CloneValue(v)
		} else {
			e.values[i] = v
		}
	}
	e.inbox = slices.Clone(cp.inbox)
	e.inboxOff = slices.Clone(cp.inboxOff)
	e.inboxLen = slices.Clone(cp.inboxLen)
	e.pendingHome = make(map[graph.VertexID]partition.ID, len(cp.pendingHome))
	for k, v := range cp.pendingHome {
		e.pendingHome[k] = v
	}
	e.aggregated = make(map[string]float64, len(cp.aggregated))
	for k, v := range cp.aggregated {
		e.aggregated[k] = v
	}
	e.msgsInFlight = 1 // conservatively not quiescent right after recovery
}

package core

// This file implements the active-set (frontier) scheduler: with
// Config.Incremental set, an iteration re-examines only vertices whose
// decision inputs could have changed since they last chose to stay,
// instead of sweeping every live vertex.
//
// The stay/request decision of the heuristic depends exclusively on the
// partitions of Γ(v) = {v} ∪ N(v) (Section 2.1); quotas are re-derived
// from global free capacity at every iteration regardless of the
// schedule. A vertex's decision can therefore only change when
//
//   - the graph mutates around it (ApplyBatch marks the mutated vertices
//     and their neighbourhoods dirty, via graph.ApplyTouched),
//   - a neighbour migrates (every granted move re-wakes the mover's
//     neighbourhood at the iteration barrier), or
//   - it never finished deciding: vertices that fail the willingness
//     coin stay scheduled (preserving the stochastic symmetry-breaking),
//     and so do vertices denied only by in-iteration competition for a
//     quota that the free capacities would otherwise admit — the
//     competitors' moves change the odds next iteration.
//
// Requesters denied "hard" — every tied-best destination's per-pair
// quota Q(i,j), derived from free capacity at the start of the
// iteration, is too small for the vertex's weight even before any
// competitor claims it — cannot succeed until capacity shifts. They are
// parked under their desired destinations (activeset.Set.Park) and
// re-woken when a migration departs such a destination (freeing capacity
// there) or when ApplyBatch changes the graph (capacities are re-derived
// from |V|, so every parked vertex re-wakes). This distinction matters:
// parking a soft-denied vertex would forfeit migrations the full sweep
// makes, while keeping hard-denied vertices scheduled would leave a
// permanent residual frontier on converged graphs.
//
// A vertex that evaluates migration and prefers to stay leaves the
// frontier; it is re-woken only by one of the events above. On a
// converged graph the frontier is empty and an iteration costs O(1), so
// steady-state cost is proportional to churn — the property SDP and the
// near-real-time survey demand of a streaming partitioner.
//
// Shards drain contiguous chunks of the sorted frontier (parallel.go).
// Their keep lists concatenate to an ascending frontier at the barrier,
// so activeset.Prepare sorts only the vertices woken since.

// DirtyCount returns the current size of the active set — the number of
// vertices scheduled for re-examination. It is 0 when the scheduler is
// idle (or when Incremental is off).
func (p *Partitioner) DirtyCount() int {
	if p.active == nil {
		return 0
	}
	return p.active.Len()
}

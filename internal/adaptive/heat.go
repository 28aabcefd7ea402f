package adaptive

import "xdgp/internal/graph"

// This file feeds the workload term of the migration objective to the
// service's scorer, core.Scorer — the same vote every core execution
// path casts (see internal/core/heat.go for the scoring model). The
// service does not sample or decay heat itself — it runs inside a
// compute engine with no serving plane — it consumes a frozen per-slot
// heat view installed by the embedder via SetHeat, e.g. a
// core.HeatSnapshot shipped from the serving daemon or a trace replayed
// by a test.

// SetHeat installs the decayed read-heat view the workload term scores
// against: heat[slot] is the vertex's accumulated decayed read count,
// exactly the shape core.(*Partitioner).HeatSnapshot returns. The slice
// is retained, not copied — callers hand over ownership. Passing nil
// (or all-zero heat) deactivates the term; so does WorkloadWeight == 0,
// under which SetHeat is completely passive and plans stay
// byte-identical to a heat-free run.
//
// With the incremental scheduler, the next Plan pass re-wakes the
// neighbourhood of every vertex whose heat is non-zero: their members'
// votes changed, so settled decisions around them must be re-examined.
func (s *Service) SetHeat(heat []float32) {
	s.heat = heat
	// One pass takes the maximum and the bitmap of non-zero slots the
	// scorer loads heat through; vertices past the view vote cold.
	hot := make([]uint64, (len(heat)+63)>>6)
	max := 0.0
	for i, h := range heat {
		if h != 0 {
			hot[i>>6] |= 1 << (i & 63)
		}
		if m := float64(h); m > max {
			max = m
		}
	}
	s.heatDirty = s.scorer.SetHeat(heat, hot, s.cfg.WorkloadWeight, max)
}

// wakeHotNeighborhoods marks the frontier around every hot vertex after
// a SetHeat, so a converged incremental schedule re-examines the
// decisions the new heat view perturbs. Runs at most once per SetHeat,
// from Plan (the frontier does not exist before the first View).
func (s *Service) wakeHotNeighborhoods(g *graph.Graph) {
	if !s.heatDirty || s.active == nil {
		s.heatDirty = false
		return
	}
	s.heatDirty = false
	for i, h := range s.heat {
		if v := graph.VertexID(i); h > 0 && g.Has(v) {
			s.active.MarkNeighborhood(g, v)
		}
	}
}

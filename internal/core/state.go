package core

import (
	"fmt"
	"math"

	"xdgp/internal/activeset"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// This file implements checkpoint/restore of the Partitioner's mutable
// state (internal/snapshot packages it with the graph and assignment into
// the on-disk format). The design goal is the daemon's determinism
// guarantee: restore(checkpoint(run at tick t)) followed by the same
// stream suffix must produce byte-identical assignments to the
// uninterrupted run.
//
// Everything is either re-derived (capacities, quotas, scratch buffers)
// or exported directly (iteration counters, the active-set
// frontier/parking state, the heat accumulator). There is no generator
// state: every draw is keyed by (Seed, iteration, vertex) (draw.go), so
// the iteration counter is the whole random position, and a checkpoint
// taken at one Parallelism restores at any other.

// State is the serializable mutable state of a Partitioner, as produced
// by ExportState and consumed by Restore. It intentionally excludes the
// graph, the assignment and the Config — the snapshot container carries
// those separately — and everything derivable from them (capacities,
// quotas, scratch space).
type State struct {
	// Iteration, Quiet and LastMigration mirror the convergence
	// bookkeeping: iterations executed, consecutive zero-migration
	// iterations, and the index of the most recent migration.
	Iteration     int
	Quiet         int
	LastMigration int
	// Active is the frontier/parking state of the incremental scheduler;
	// nil when Config.Incremental is off.
	Active *activeset.State
	// Heat is the decayed read-traffic accumulator by vertex slot (see
	// FoldHeat); nil when no heat was ever folded. Restoring it
	// mid-decay keeps workload-weighted runs byte-identical across a
	// checkpoint/restore boundary.
	Heat []float32
}

// ExportState captures the partitioner's mutable state. The result holds
// no references into the partitioner: every slice is a fresh copy, so a
// snapshot taken between ticks stays valid while the partitioner keeps
// running.
func (p *Partitioner) ExportState() State {
	st := State{
		Iteration:     p.iter,
		Quiet:         p.quiet,
		LastMigration: p.lastMigration,
	}
	if p.active != nil {
		a := p.active.Export()
		st.Active = &a
	}
	st.Heat = p.HeatSnapshot()
	return st
}

// Restore reconstructs a Partitioner mid-run: g and asn must be the
// graph and assignment captured together with st (the snapshot container
// guarantees this), and cfg must carry the same algorithmic parameters as
// the checkpointed run — in particular the same Seed and Incremental
// flag. Parallelism is free: the restored partitioner continues exactly
// where the exported one stopped at any shard count, with the same
// convergence bookkeeping and the same active-set frontier.
func Restore(g *graph.Graph, asn *partition.Assignment, cfg Config, st State) (*Partitioner, error) {
	if st.Iteration < 0 || st.Quiet < 0 || st.LastMigration < 0 {
		return nil, fmt.Errorf("core: negative counters in state (iter=%d quiet=%d last=%d)",
			st.Iteration, st.Quiet, st.LastMigration)
	}
	p, err := New(g, asn, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Incremental != (st.Active != nil) {
		return nil, fmt.Errorf("core: state incremental=%v, config incremental=%v", st.Active != nil, cfg.Incremental)
	}
	p.iter = st.Iteration
	p.quiet = st.Quiet
	p.lastMigration = st.LastMigration
	if st.Active != nil {
		// New seeded the frontier with every live vertex; replace it with
		// the exported scheduler state.
		active, err := activeset.RestoreSet(cfg.K, g.NumSlots(), *st.Active)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		p.active = active
	}
	if st.Heat != nil {
		if len(st.Heat) > g.NumSlots() {
			return nil, fmt.Errorf("core: state has heat for %d slots, graph has %d", len(st.Heat), g.NumSlots())
		}
		// Folding read counts only ever produces finite, non-negative
		// heat. Anything else would poison the votes (a NaN count never
		// equals the maximum), so such a state is corrupt.
		max := 0.0
		for i, h := range st.Heat {
			m := float64(h)
			if !(m >= 0) || math.IsInf(m, 1) {
				return nil, fmt.Errorf("core: state heat slot %d holds %v, want a finite value ≥ 0", i, h)
			}
			if m > max {
				max = m
			}
		}
		p.heat = append([]float32(nil), st.Heat...)
		p.growHeat(len(p.heat))
		for i, h := range p.heat {
			if h != 0 {
				p.indexHeat(i)
			}
		}
		p.scorer.SetHeat(p.heat, p.heatBits, cfg.WorkloadWeight, max)
	}
	return p, nil
}

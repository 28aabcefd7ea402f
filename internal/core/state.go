package core

import (
	"fmt"
	"math"
	"math/rand/v2"

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
// Everything except the RNGs is either re-derived (capacities, quotas,
// scratch buffers) or exported directly (iteration counters, the
// active-set frontier/parking state). The RNGs are math/rand/v2 PCG
// generators — chosen over math/rand specifically because their state
// is small (two words) and serializable via MarshalBinary, so a restored
// generator continues the exact stream with no replay and no per-draw
// bookkeeping on the hot path.

// newPCG builds the deterministic generator for a (seed, stream) pair:
// stream 0 is the sequential sweep's generator, stream i ≥ 1 belongs to
// parallel shard i−1. The second PCG seed word separates the streams
// (golden-ratio stride) so shards never share a sequence even though
// they share the user seed.
func newPCG(seed int64, stream int) *rand.PCG {
	return rand.NewPCG(uint64(seed), 0x9E3779B97F4A7C15*uint64(stream+1))
}

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
	// RNG is the sequential generator's serialized PCG state
	// (rand.PCG.MarshalBinary).
	RNG []byte
	// ShardRNGs are the per-shard equivalents for the parallel sweep,
	// indexed by shard; empty when the partitioner runs one shard.
	ShardRNGs [][]byte
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
		RNG:           marshalPCG(p.rngSrc),
	}
	if len(p.shards) > 0 {
		st.ShardRNGs = make([][]byte, len(p.shards))
		for i, sh := range p.shards {
			st.ShardRNGs[i] = marshalPCG(sh.src)
		}
	}
	if p.active != nil {
		a := p.active.Export()
		st.Active = &a
	}
	st.Heat = p.HeatSnapshot()
	return st
}

// marshalPCG serializes a PCG generator. The error path is unreachable
// (PCG's MarshalBinary cannot fail), but stays checked so a future
// library change surfaces loudly.
func marshalPCG(src *rand.PCG) []byte {
	b, err := src.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("core: marshal PCG: %v", err))
	}
	return b
}

// Restore reconstructs a Partitioner mid-run: g and asn must be the
// graph and assignment captured together with st (the snapshot container
// guarantees this), and cfg must carry the same algorithmic parameters as
// the checkpointed run — in particular the same Seed, resolved
// Parallelism and Incremental flag, since all three shape the random
// streams. The restored partitioner continues exactly where the exported
// one stopped: same RNG states, same convergence bookkeeping, same
// active-set frontier.
func Restore(g *graph.Graph, asn *partition.Assignment, cfg Config, st State) (*Partitioner, error) {
	if st.Iteration < 0 || st.Quiet < 0 || st.LastMigration < 0 {
		return nil, fmt.Errorf("core: negative counters in state (iter=%d quiet=%d last=%d)",
			st.Iteration, st.Quiet, st.LastMigration)
	}
	p, err := New(g, asn, cfg)
	if err != nil {
		return nil, err
	}
	if p.par > 1 {
		if len(st.ShardRNGs) != p.par {
			return nil, fmt.Errorf("core: state has %d shard RNG states, config resolves to %d shards",
				len(st.ShardRNGs), p.par)
		}
	} else if len(st.ShardRNGs) != 0 {
		return nil, fmt.Errorf("core: state has %d shard RNG states but config is sequential", len(st.ShardRNGs))
	}
	if cfg.Incremental != (st.Active != nil) {
		return nil, fmt.Errorf("core: state incremental=%v, config incremental=%v", st.Active != nil, cfg.Incremental)
	}
	p.iter = st.Iteration
	p.quiet = st.Quiet
	p.lastMigration = st.LastMigration
	if err := p.rngSrc.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("core: restore RNG: %w", err)
	}
	for i, sh := range p.shards {
		if err := sh.src.UnmarshalBinary(st.ShardRNGs[i]); err != nil {
			return nil, fmt.Errorf("core: restore shard %d RNG: %w", i, err)
		}
	}
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

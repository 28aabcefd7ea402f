package core

import "xdgp/internal/graph"

// This file implements the workload term of the migration utility
// (Config.WorkloadWeight): an AWAPart-style extension that co-locates
// vertices which are *read together*, not just connected.
//
// The serving plane samples read traffic off the lock-free lookup path
// (internal/heat) and, at tick boundaries, folds the sampled vertex IDs
// into the partitioner via FoldHeat. The fold maintains a dense decayed
// per-slot accumulator plus a sparse index of its non-zero slots: every
// fold multiplies only the non-zero entries by the caller's decay factor
// (derived from the configured half-life), then adds the sample weight
// for every sampled vertex. Zero entries stay zero under decay, so
// skipping them changes no value, and the fold costs O(hot + samples)
// rather than O(V). Between folds the accumulator is immutable, so every
// iteration of the heuristic scores against one frozen heat view —
// decisions stay a pure function of (seed, graph, assignment, heat
// trace) and runs replay byte-identically for a fixed fold schedule.
//
// Scoring: with the term active, a member w of Γ(v) votes for its
// partition with weight 1 + WorkloadWeight·heat(w)/max(heat) instead of
// 1. Cold regions (heat 0 everywhere in Γ(v)) therefore produce exactly
// the integer votes of the paper's objective — including identical ties,
// so tie-break shuffles permute identical candidates — and only hot
// neighbourhoods are perturbed, pulling a hot vertex's co-read
// neighbours toward its partition. Capacities and quotas are untouched:
// the workload term changes which destination wins, never how much may
// move. The vote is cast by Scorer (score.go), the one scorer of every
// execution path and of internal/adaptive: each fold hands it the
// accumulator, the bitmap of its non-zero slots and the maximum, and
// Scorer.SetHeat derives the multiplier WorkloadWeight/max. The exact
// cold vote rests on 1 + scale·0 == 1, which holds for every finite
// scale; Config.validate refuses a non-finite WorkloadWeight.
//
// With Config.WorkloadWeight == 0 the fold still maintains the
// accumulator (so operators can watch heat before enabling the term) but
// the scorers' heat view stays inactive, the integer tally runs
// unconditionally, and no frontier wake happens: runs are
// byte-identical to a build without the feature,
// mirroring the change-tracking passivity contract.

// heatFloor is the accumulator value below which a decayed entry snaps
// to zero. It keeps long-cold vertices exactly cold (restoring the
// integer-vote fast ties) and bounds HotVertices.
const heatFloor = 1e-3

// FoldHeat folds one tick's read samples into the decayed heat
// accumulator: heat ← heat·decay, then heat[v] += sampleWeight for every
// sampled vertex v (IDs beyond the current slot range are dropped).
// decay must be in (0, 1]; sampleWeight is the number of reads each
// sample stands for. It returns the accumulator's new maximum and the
// number of vertices with non-zero heat.
//
// The decay, the maximum and the hot count walk only the slots listed
// in heatIdx, so a fold costs O(hot + samples) whatever the slot count.
// Each entry gets the same float64 arithmetic and heatFloor snap as a
// pass over every slot would give it, and the maximum is independent of
// visiting order, so the accumulator and the vote multiplier are
// bit-for-bit those of the dense pass.
//
// When the workload term is active (WorkloadWeight > 0) and the
// incremental scheduler is on, the neighbourhoods of newly sampled
// vertices are re-woken — their members' votes changed, so their
// decisions must be re-examined. With WorkloadWeight == 0 the fold is
// completely passive. Callers synchronize with Step/ApplyBatch
// externally (the daemon holds its state lock).
func (p *Partitioner) FoldHeat(decay float64, samples []graph.VertexID, sampleWeight float64) (max float64, hot int) {
	p.growHeat(p.g.NumSlots())
	for _, i := range p.heatIdx {
		d := float64(p.heat[i]) * decay
		if d < heatFloor {
			d = 0
		}
		p.heat[i] = float32(d)
	}
	added := 0
	for _, v := range samples {
		if i := int(v); i >= 0 && i < len(p.heat) {
			p.indexHeat(i)
			p.heat[i] += float32(sampleWeight)
			added++
		}
	}
	// Drop the entries that decay snapped to zero (or a sample cancelled)
	// from the index, and take the maximum and hot count over the rest.
	kept := p.heatIdx[:0]
	for _, i := range p.heatIdx {
		h := p.heat[i]
		if h == 0 {
			p.heatBits[i>>6] &^= 1 << (i & 63)
			continue
		}
		kept = append(kept, i)
		if h > 0 {
			hot++
			if m := float64(h); m > max {
				max = m
			}
		}
	}
	p.heatIdx = kept
	if p.scorer.SetHeat(p.heat, p.heatBits, p.cfg.WorkloadWeight, max) && added > 0 {
		// Fresh heat changes decision inputs, so convergence must be
		// re-proven — without this a converged daemon would never react
		// to a flash crowd. Decay-only folds skip it: uniform decay
		// cancels in the max-normalised votes, so nothing re-decides.
		p.quiet = 0
		if p.active != nil {
			// Wake the sampled neighbourhoods: heat(w) feeds every
			// neighbour of w's decision (and w's own). Dedupe first —
			// hot vertices repeat in the sample stream and
			// MarkNeighborhood walks Γ(v). Live vertices lie inside the
			// slot range growHeat covered, and zeroing the words of the
			// woken vertices clears the set for the next fold.
			for _, v := range samples {
				if !p.g.Has(v) {
					continue
				}
				if w, b := v>>6, uint64(1)<<(v&63); p.heatWake[w]&b == 0 {
					p.heatWake[w] |= b
					p.active.MarkNeighborhood(p.g, v)
				}
			}
			for _, v := range samples {
				if p.g.Has(v) {
					p.heatWake[v>>6] = 0
				}
			}
		}
	}
	return max, hot
}

// growHeat extends the accumulator and its two bitmaps to cover slots.
func (p *Partitioner) growHeat(slots int) {
	if len(p.heat) < slots {
		p.heat = append(p.heat, make([]float32, slots-len(p.heat))...)
	}
	if words := (len(p.heat) + 63) >> 6; len(p.heatBits) < words {
		p.heatBits = append(p.heatBits, make([]uint64, words-len(p.heatBits))...)
		p.heatWake = append(p.heatWake, make([]uint64, words-len(p.heatWake))...)
	}
}

// indexHeat adds slot i to the sparse heat index unless it is listed.
func (p *Partitioner) indexHeat(i int) {
	if w, b := i>>6, uint64(1)<<(i&63); p.heatBits[w]&b == 0 {
		p.heatBits[w] |= b
		p.heatIdx = append(p.heatIdx, int32(i))
	}
}

// HeatSnapshot returns a copy of the decayed heat accumulator (nil when
// no heat has ever been folded). Indexed by vertex slot, like the
// assignment table.
func (p *Partitioner) HeatSnapshot() []float32 {
	if p.heat == nil {
		return nil
	}
	return append([]float32(nil), p.heat...)
}

package core

import (
	"fmt"
	"testing"

	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// clusterReplicas builds n replicated-state-machine replicas: each holds
// its own clone of the graph and the same deterministic initial
// assignment. Each replica runs one local shard: the cluster size and
// the local Parallelism are independent.
func clusterReplicas(t *testing.T, g *graph.Graph, k, n int, mut func(*Config)) []*Partitioner {
	t.Helper()
	out := make([]*Partitioner, n)
	for i := range out {
		gc := g.Clone()
		cfg := DefaultConfig(k, 13)
		cfg.RecordEvery = 1
		if mut != nil {
			mut(&cfg)
		}
		out[i] = mustNew(t, gc, partition.Hash(gc, k), cfg)
	}
	return out
}

// TestClusterStepMatchesSingleProcess pins the tentpole determinism
// contract at the core layer: N replicas, each running decide for only
// its own shard and applying the merged decisions, stay byte-identical —
// to each other AND to one process running Step at another Parallelism —
// through a dynamic run with mutation batches landing mid-flight.
func TestClusterStepMatchesSingleProcess(t *testing.T) {
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"fullsweep", false}, {"incremental", true}} {
		for _, n := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(t *testing.T) {
				const k = 6
				g := gen.HolmeKim(800, 5, 0.1, 7)
				stream := forestFireStream(g, 6, 40, 99)

				refG := g.Clone()
				cfg := DefaultConfig(k, 13)
				cfg.Parallelism = n + 1
				cfg.RecordEvery = 1
				cfg.Incremental = mode.incremental
				ref := mustNew(t, refG, partition.Hash(refG, k), cfg)

				reps := clusterReplicas(t, g, k, n, func(c *Config) { c.Incremental = mode.incremental })

				decs := make([]*ShardDecision, n)
				// Batches stop arriving at iteration 38, so the tail of
				// this loop steps a drained (eventually empty) frontier —
				// empty decisions must merge exactly like busy ones.
				for iter := 0; iter < 55; iter++ {
					if iter%7 == 3 {
						if b := stream.Next(); b != nil {
							ref.ApplyBatch(b)
							for _, r := range reps {
								r.ApplyBatch(b)
							}
						}
					}
					refSt := ref.Step()
					for i, r := range reps {
						d, err := r.StepClusterDecide(i, n)
						if err != nil {
							t.Fatalf("iter %d shard %d decide: %v", iter, i, err)
						}
						decs[i] = d
					}
					for i, r := range reps {
						st, err := r.StepClusterApply(decs)
						if err != nil {
							t.Fatalf("iter %d shard %d apply: %v", iter, i, err)
						}
						if st != refSt {
							t.Fatalf("iter %d shard %d: stats diverged from single-process:\n cluster: %+v\n single:  %+v", iter, i, st, refSt)
						}
					}
					for i, r := range reps {
						if r.DirtyCount() != ref.DirtyCount() {
							t.Fatalf("iter %d shard %d: frontier size %d, single-process %d", iter, i, r.DirtyCount(), ref.DirtyCount())
						}
						for v := 0; v < refG.NumSlots(); v++ {
							id := graph.VertexID(v)
							if got, want := r.Assignment().Of(id), ref.Assignment().Of(id); got != want {
								t.Fatalf("iter %d shard %d: vertex %d → %d, single-process → %d", iter, i, v, got, want)
							}
						}
					}
				}
				if !ref.Converged() {
					// Sanity: the workload should be long enough to exercise
					// quiet iterations too; not fatal, the identity above is
					// the contract.
					t.Logf("reference not converged after 40 iterations (fine)")
				}
			})
		}
	}
}

// TestClusterDecideValidation covers the error paths: out-of-range
// shard, no decisions, malformed and nil decisions, and keeps outside
// the vertex table.
func TestClusterDecideValidation(t *testing.T) {
	g := gen.Cube3D(4)
	cfg := DefaultConfig(4, 7)
	cfg.Parallelism = 2
	p := mustNew(t, g, partition.Hash(g, 4), cfg)
	if _, err := p.StepClusterDecide(2, 2); err == nil {
		t.Fatal("decide with shard ≥ cluster size must fail")
	}
	if _, err := p.StepClusterDecide(-1, 2); err == nil {
		t.Fatal("decide with negative shard must fail")
	}
	d, err := p.StepClusterDecide(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StepClusterApply(nil); err == nil {
		t.Fatal("apply with no decisions must fail")
	}
	bad := &ShardDecision{Reqs: make([][]ClusterReq, 4)}
	bad.Reqs[1] = []ClusterReq{{V: 0, Off: 0, N: 1, W: 1}}
	if _, err := p.StepClusterApply([]*ShardDecision{d, bad}); err == nil {
		t.Fatal("apply with candidates outside the arena must fail")
	}
	bad.Cands = []partition.ID{9}
	if _, err := p.StepClusterApply([]*ShardDecision{d, bad}); err == nil {
		t.Fatal("apply with an out-of-range destination must fail")
	}
	if _, err := p.StepClusterApply([]*ShardDecision{d, nil}); err == nil {
		t.Fatal("apply with nil decision must fail")
	}
	keep := &ShardDecision{Keeps: []graph.VertexID{graph.VertexID(g.NumSlots())}}
	if _, err := p.StepClusterApply([]*ShardDecision{d, keep}); err == nil {
		t.Fatal("apply with a keep outside the vertex table must fail")
	}
}

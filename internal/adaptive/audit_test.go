package adaptive

import (
	"testing"

	"xdgp/internal/gen"
)

// PR 3's snapshot path exports partitioner state across package
// boundaries, so this audit pins the adaptive service's exposure
// surface the same way PR 2 pinned View.WorkerCosts and Engine.History:
//
//   - TotalRequested/TotalGranted/TotalExamined/DirtyCount return plain
//     ints — values, nothing to alias;
//   - Plan allocates its request slice fresh on every pass (the engine
//     consumes it at the same barrier; no scratch buffer is ever handed
//     out);
//   - the service's scratch (the core.Decider and its decision, the
//     scorer, the free and drain vectors) and scheduler state (active)
//     are unexported and unreachable;
//   - the daemon checkpoints core.Partitioner, not Service, so no
//     Service state crosses the snapshot boundary at all.
//
// The test below locks in the observable part of that contract: service
// bookkeeping stays internally consistent and idle re-reads are stable,
// which breaks if any caller-visible buffer were reused across passes.

func TestServiceAccessorBookkeeping(t *testing.T) {
	g := gen.Cube3D(8)
	e, svc := newIncrementalEngine(t, g, 4, 1)
	e.RunSupersteps(20)

	requested, granted := svc.TotalRequested(), svc.TotalGranted()
	examined, dirty := svc.TotalExamined(), svc.DirtyCount()
	if examined == 0 {
		t.Fatal("service never examined a vertex")
	}
	if requested < granted {
		t.Fatalf("requested=%d < granted=%d", requested, granted)
	}
	// Idle accessor re-reads must be stable (values, not views of
	// mutating internals).
	if svc.TotalRequested() != requested || svc.TotalGranted() != granted ||
		svc.TotalExamined() != examined || svc.DirtyCount() != dirty {
		t.Fatal("idle accessor re-reads diverged")
	}
	// Further passes keep totals monotone — a scratch-aliasing bug that
	// rewrites granted requests after accounting shows up here.
	e.RunSupersteps(10)
	if svc.TotalRequested() < requested || svc.TotalGranted() < granted || svc.TotalExamined() < examined {
		t.Fatalf("totals went backwards: requested %d->%d granted %d->%d examined %d->%d",
			requested, svc.TotalRequested(), granted, svc.TotalGranted(), examined, svc.TotalExamined())
	}
}

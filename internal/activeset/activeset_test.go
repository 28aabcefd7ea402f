package activeset

import (
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func alive(...graph.VertexID) func(graph.VertexID) bool {
	return func(graph.VertexID) bool { return true }
}

// drain prepares the frontier and settles all of it.
func drain(s *Set) []graph.VertexID {
	out := append([]graph.VertexID(nil), s.Prepare(alive())...)
	s.Rebuild()
	return out
}

func TestMarkIsIdempotentAndSorted(t *testing.T) {
	s := New(2)
	s.Grow(10)
	for _, v := range []graph.VertexID{7, 3, 7, 3, 9} {
		s.Mark(v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := drain(s)
	want := []graph.VertexID{3, 7, 9}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("prepared %v, want %v", got, want)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", s.Len())
	}
	// A drained vertex can be re-marked.
	s.Mark(3)
	if s.Len() != 1 {
		t.Fatalf("re-mark failed: Len = %d", s.Len())
	}
}

func TestPrepareDropsDead(t *testing.T) {
	s := New(2)
	s.Grow(5)
	s.Mark(1)
	s.Mark(2)
	f := s.Prepare(func(v graph.VertexID) bool { return v != 1 })
	if len(f) != 1 || f[0] != 2 {
		t.Fatalf("prepared %v, want [2]", f)
	}
	s.Rebuild([]graph.VertexID{2})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// The dropped vertex can be re-marked later (bit was cleared).
	s.Mark(1)
	if s.Len() != 2 {
		t.Fatalf("dead vertex could not be re-marked: Len = %d", s.Len())
	}
}

func TestParkAndUnpark(t *testing.T) {
	s := New(3)
	s.Grow(8)
	s.Mark(4)
	drain(s)
	s.Park(4, []partition.ID{1, 2})
	if s.Len() != 0 {
		t.Fatalf("parked vertex still scheduled: Len = %d", s.Len())
	}
	// Unparking an unrelated destination wakes nothing.
	s.UnparkDest(0)
	if s.Len() != 0 {
		t.Fatal("unrelated destination woke the parked vertex")
	}
	// Unparking a parked-on destination re-schedules it once; the stale
	// entry under the other destination is then inert.
	s.UnparkDest(1)
	if s.Len() != 1 {
		t.Fatalf("unpark woke %d, want 1", s.Len())
	}
	s.UnparkDest(2)
	if s.Len() != 1 {
		t.Fatalf("stale park entry double-scheduled: Len = %d", s.Len())
	}
}

func TestMarkClearsParkedState(t *testing.T) {
	s := New(2)
	s.Grow(4)
	s.Mark(3)
	drain(s)
	s.Park(3, []partition.ID{0})
	// A neighbourhood event re-marks the parked vertex directly…
	s.Mark(3)
	if s.Len() != 1 {
		t.Fatalf("Mark did not unpark: Len = %d", s.Len())
	}
	// …and the stale park-list entry must not act on it again after it
	// settles.
	drain(s)
	s.UnparkAll()
	if s.Len() != 0 {
		t.Fatalf("stale entry resurrected a settled vertex: Len = %d", s.Len())
	}
}

func TestRebuild(t *testing.T) {
	s := New(2)
	s.Grow(10)
	for _, v := range []graph.VertexID{1, 2, 3, 4} {
		s.Mark(v)
	}
	s.Prepare(alive())
	// Sharded drain: two keep lists, vertex 1 settles, vertex 4 parks.
	s.Rebuild([]graph.VertexID{2}, []graph.VertexID{3})
	s.Park(4, []partition.ID{0})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// The kept vertices stay scheduled (a re-mark adds nothing); the
	// settled one can be re-marked.
	s.Mark(2)
	s.Mark(1)
	if s.Len() != 3 {
		t.Fatalf("Len after re-marks = %d, want 3", s.Len())
	}
	got := drain(s)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("rebuilt frontier %v, want [1 2 3]", got)
	}
	s.UnparkAll()
	if s.Len() != 1 {
		t.Fatalf("parked vertex lost across Rebuild: Len = %d", s.Len())
	}
}

func TestParkListsStayBounded(t *testing.T) {
	// A vertex that cycles park → wake → park against a destination that
	// never unparks must not grow that destination's list without bound:
	// compaction keeps each list within the slot count.
	s := New(2)
	s.Grow(4)
	for i := 0; i < 1000; i++ {
		s.Mark(3)
		drain(s)
		s.Park(3, []partition.ID{0, 1})
		// Wake through an unrelated path, leaving stale entries behind.
		s.Mark(3)
		drain(s)
	}
	for j, list := range s.parked {
		if len(list) > 4+1 {
			t.Fatalf("parked[%d] grew to %d entries on 4 slots", j, len(list))
		}
	}
	// And a genuine waiter still survives compaction.
	s.Mark(2)
	drain(s)
	s.Park(2, []partition.ID{0})
	s.UnparkDest(0)
	if s.Len() != 1 {
		t.Fatalf("waiter lost after compaction churn: Len = %d", s.Len())
	}
}

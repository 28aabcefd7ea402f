package activeset

import (
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

func TestExportRestoreRoundTrip(t *testing.T) {
	s := New(3)
	s.Grow(10)
	s.Mark(4)
	s.Mark(1)
	s.Mark(7)
	// Park 2 under destinations 0 and 2; park 9 under 1.
	s.Park(2, []partition.ID{0, 2})
	s.Park(9, []partition.ID{1})
	// Create a stale entry: park 5 then wake it — the list entry remains
	// but parkedBit clears, so the export must drop it.
	s.Park(5, []partition.ID{0})
	s.Mark(5)

	st := s.Export()
	if got, want := len(st.Frontier), 4; got != want { // 1,4,5,7
		t.Fatalf("frontier size %d, want %d", got, want)
	}
	for i := 1; i < len(st.Frontier); i++ {
		if st.Frontier[i-1] >= st.Frontier[i] {
			t.Fatal("frontier not sorted ascending")
		}
	}
	if len(st.Parked[0]) != 1 || st.Parked[0][0] != 2 {
		t.Fatalf("parked[0] = %v, want [2] (stale entry 5 dropped)", st.Parked[0])
	}
	if len(st.Parked[1]) != 1 || st.Parked[1][0] != 9 {
		t.Fatalf("parked[1] = %v, want [9]", st.Parked[1])
	}
	if len(st.Parked[2]) != 1 || st.Parked[2][0] != 2 {
		t.Fatalf("parked[2] = %v, want [2]", st.Parked[2])
	}

	r, err := RestoreSet(3, 10, st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored frontier %d, want %d", r.Len(), s.Len())
	}
	// Unparking destination 0 must wake exactly vertex 2 in both sets.
	s.UnparkDest(0)
	r.UnparkDest(0)
	if s.Len() != r.Len() {
		t.Fatalf("after UnparkDest(0): %d vs %d scheduled", s.Len(), r.Len())
	}
	// The restored state drains identically.
	alive := func(graph.VertexID) bool { return true }
	a, b := s.Prepare(alive), r.Prepare(alive)
	if len(a) != len(b) {
		t.Fatalf("prepared frontiers differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prepared frontiers differ at %d: %v vs %v", i, a, b)
		}
	}
	s.Rebuild()
	r.Rebuild()
}

func TestExportIsACopy(t *testing.T) {
	s := New(2)
	s.Grow(5)
	s.Mark(3)
	s.Park(1, []partition.ID{0})
	st := s.Export()
	st.Frontier[0] = -1
	st.Parked[0][0] = -1
	st2 := s.Export()
	if st2.Frontier[0] != 3 || st2.Parked[0][0] != 1 {
		t.Fatal("mutating an export leaked into the set")
	}
}

func TestRestoreSetValidation(t *testing.T) {
	if _, err := RestoreSet(2, 5, State{Parked: make([][]graph.VertexID, 3)}); err == nil {
		t.Fatal("accepted wrong park-list count")
	}
	if _, err := RestoreSet(2, 5, State{Frontier: []graph.VertexID{5}}); err == nil {
		t.Fatal("accepted out-of-range frontier vertex")
	}
	st := State{
		Frontier: []graph.VertexID{1},
		Parked:   [][]graph.VertexID{{1}, nil},
	}
	if _, err := RestoreSet(2, 5, st); err == nil {
		t.Fatal("accepted vertex both scheduled and parked")
	}
}

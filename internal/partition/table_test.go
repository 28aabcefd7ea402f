package partition

import (
	"math/rand"
	"slices"
	"testing"

	"xdgp/internal/graph"
)

// refTable is the reference for the one-byte tables: a plain []ID plus
// size counters, with None for unassigned slots.
type refTable struct {
	of    []ID
	sizes []int
}

func (r *refTable) assign(v graph.VertexID, p ID) {
	for len(r.of) <= int(v) {
		r.of = append(r.of, None)
	}
	if old := r.of[v]; old != None {
		r.sizes[old]--
	}
	if p != None {
		r.sizes[p]++
	}
	r.of[v] = p
}

func (r *refTable) assigned() int {
	n := 0
	for _, s := range r.sizes {
		n += s
	}
	return n
}

// checkFrozen compares a Frozen with the reference table it should equal.
func checkFrozen(t *testing.T, step int, f *Frozen, want []ID, k int) {
	t.Helper()
	if f.K() != k || f.Slots() != len(want) {
		t.Fatalf("step %d: frozen k=%d slots=%d, want k=%d slots=%d", step, f.K(), f.Slots(), k, len(want))
	}
	assigned := 0
	for v, p := range want {
		if got := f.Of(graph.VertexID(v)); got != p {
			t.Fatalf("step %d: frozen Of(%d) = %d, want %d", step, v, got, p)
		}
		if p != None {
			assigned++
		}
	}
	if f.Assigned() != assigned {
		t.Fatalf("step %d: frozen assigned %d, want %d", step, f.Assigned(), assigned)
	}
}

// TestTablesMatchReference drives seeded random sequences of every
// operation of Assignment and Frozen at the edge partition counts
// (1, 2, 9 and MaxK) and compares each result with refTable: the cell
// encoding must be invisible at the API.
func TestTablesMatchReference(t *testing.T) {
	for _, k := range []int{1, 2, 9, MaxK} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			a := NewAssignment(rng.Intn(8), k)
			ref := &refTable{of: slices.Repeat([]ID{None}, a.Slots()), sizes: make([]int, k)}
			replica := a.Freeze()
			var pending []Change
			pick := func() ID {
				switch rng.Intn(4) {
				case 0:
					return None
				case 1:
					return ID(k - 1)
				}
				return ID(rng.Intn(k))
			}
			for step := 0; step < 600; step++ {
				v := graph.VertexID(rng.Intn(len(ref.of) + 20))
				switch op := rng.Intn(10); {
				case op == 0:
					n := len(ref.of) + rng.Intn(40)
					a.Grow(n)
					for len(ref.of) < n {
						ref.of = append(ref.of, None)
					}
				case op <= 4:
					p := pick()
					a.Assign(v, p)
					ref.assign(v, p)
					pending = append(pending, Change{Vertex: v, To: p})
				case op == 5:
					a.Unassign(v)
					ref.assign(v, None)
					pending = append(pending, Change{Vertex: v, To: None})
				case op == 6:
					// A replica advancing by the changes since its last
					// epoch lands on the primary's table, except for
					// slots the primary grew without placing.
					replica = replica.Apply(pending)
					pending = pending[:0]
					want := ref.of[:replica.Slots()]
					checkFrozen(t, step, replica, want, k)
					checkFrozen(t, step, a.Freeze(), ref.of, k)
				case op == 7:
					from, to := rng.Intn(len(ref.of)+4)-2, rng.Intn(len(ref.of)+4)
					var got []Change
					a.Freeze().Scan(from, to, func(v graph.VertexID, p ID) {
						got = append(got, Change{Vertex: v, To: p})
					})
					var want []Change
					for i := max(from, 0); i < min(to, len(ref.of)); i++ {
						if ref.of[i] != None {
							want = append(want, Change{Vertex: graph.VertexID(i), To: ref.of[i]})
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("k=%d step %d: Scan(%d, %d) = %v, want %v", k, step, from, to, got, want)
					}
				case op == 8:
					if got := a.Table(); !slices.Equal(got, ref.of) {
						t.Fatalf("k=%d step %d: Table differs from the reference", k, step)
					}
				default:
					b, err := FromTable(ref.of, k)
					if err != nil {
						t.Fatalf("k=%d step %d: FromTable: %v", k, step, err)
					}
					a = b
				}
				if a.Slots() != len(ref.of) || a.Assigned() != ref.assigned() || !slices.Equal(a.Sizes(), ref.sizes) {
					t.Fatalf("k=%d step %d: slots %d assigned %d sizes %v, want %d %d %v",
						k, step, a.Slots(), a.Assigned(), a.Sizes(), len(ref.of), ref.assigned(), ref.sizes)
				}
				want := None
				if int(v) < len(ref.of) {
					want = ref.of[v]
				}
				if got := a.Of(v); got != want {
					t.Fatalf("k=%d step %d: Of(%d) = %d, want %d", k, step, v, got, want)
				}
			}
		}
	}
}

// TestTablesRefuseWithoutWrapping pins that a partition at or above k is
// refused by every writer instead of being stored in a wrapped cell.
func TestTablesRefuseWithoutWrapping(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := NewAssignment(4, 9)
	mustPanic("Assign(p=k)", func() { a.Assign(0, 9) })
	mustPanic("Assign(p=255)", func() { a.Assign(0, 255) })
	mustPanic("Assign(p=-2)", func() { a.Assign(0, -2) })
	mustPanic("Apply(To=k)", func() { a.Freeze().Apply([]Change{{Vertex: 0, To: 9}}) })
	mustPanic("Apply(To=256)", func() { NewFrozen(MaxK).Apply([]Change{{Vertex: 0, To: 256}}) })
	mustPanic("NewAssignment(k=256)", func() { NewAssignment(0, MaxK+1) })
	mustPanic("NewFrozen(k=256)", func() { NewFrozen(MaxK + 1) })
	if _, err := FromTable([]ID{255}, MaxK); err == nil {
		t.Error("FromTable accepted partition 255 at k=255")
	}
	if a.Assigned() != 0 || a.Of(0) != None {
		t.Fatalf("a refused Assign changed the table: assigned %d, Of(0) %d", a.Assigned(), a.Of(0))
	}
}

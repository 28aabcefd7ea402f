package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// referenceDecode is the acceptance rule DecodeGraph must reproduce:
// the same parsing and range checks, then the per-end reference check.
func referenceDecode(data []byte) error {
	g, err := decodeGraph(data)
	if err != nil {
		return err
	}
	return g.checkInvariantsRef()
}

// diffFixture is a graph with a compacted base and a live overlay in
// every direction it has, plus dead and recycled slots.
func diffFixture(directed bool) *Graph {
	g := buildChurnedGraph(directed)
	g.Compact()
	g.RemoveEdge(2, 3)
	g.RemoveVertex(9)
	v := g.AddVertex()
	g.AddEdge(v, 0)
	g.AddEdge(5, v)
	g.AddEdge(1, 8)
	return g
}

// baseEdge returns the first base entry (v, w) of out-adjacency with
// w > v (upper) or w < v (lower).
func baseEdge(g *Graph, upper bool) (VertexID, VertexID) {
	for v := range g.out.spans {
		for _, w := range g.out.base(VertexID(v)) {
			if (w > VertexID(v)) == upper {
				return VertexID(v), w
			}
		}
	}
	panic("fixture has no such base edge")
}

// overlayEdge returns the first overlay entry (v, w) of out-adjacency.
func overlayEdge(g *Graph) (VertexID, VertexID) {
	for v := range g.out.spans {
		if adds := g.out.addsOf(VertexID(v)); len(adds) > 0 {
			return VertexID(v), adds[0]
		}
	}
	panic("fixture has no overlay entry")
}

// nonEdge returns live a != b with b not an out-neighbour of a.
func nonEdge(g *Graph) (VertexID, VertexID) {
	for a := range g.alive {
		for b := range g.alive {
			if a != b && g.alive[a] && g.alive[b] && !g.out.has(VertexID(a), VertexID(b)) {
				return VertexID(a), VertexID(b)
			}
		}
	}
	panic("fixture is complete")
}

func deadSlot(g *Graph) VertexID {
	for id, alive := range g.alive {
		if !alive {
			return VertexID(id)
		}
	}
	panic("fixture has no dead slot")
}

// diffCase mutates a fixture's internals; the mutated graph is encoded
// verbatim and both decoders judge the bytes. accept is the verdict the
// reference must reach, so a mutation that stops biting fails loudly.
type diffCase struct {
	name     string
	directed bool
	accept   bool
	mutate   func(g *Graph)
}

var diffCases = []diffCase{
	{"undirected-unchanged", false, true, func(g *Graph) {}},
	{"undirected-add-symmetric-overlay", false, true, func(g *Graph) {
		a, b := nonEdge(g)
		g.out.add(a, b)
		g.out.add(b, a)
		g.m++
	}},
	{"undirected-drop-symmetric-base", false, true, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.out.del(v, w)
		g.out.del(w, v)
		g.m--
	}},
	{"drop-upper-reverse", false, false, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.out.del(v, w)
	}},
	{"drop-lower-reverse", false, false, func(g *Graph) {
		v, w := baseEdge(g, false)
		g.out.del(v, w)
	}},
	// Dropping one upper and one lower end of two different edges keeps
	// every count right; only the probe can see the asymmetry.
	{"drop-upper-and-lower-balanced", false, false, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.out.del(v, w)
		x, y := overlayEdge(g)
		if x < y {
			x, y = y, x
		}
		if !g.out.has(x, y) || (x == w && y == v) {
			panic("fixture overlay edge unusable")
		}
		g.out.del(x, y)
		g.m--
	}},
	// One edge loses its upper end and a non-edge gains one: the counts
	// still balance.
	{"upper-end-moved-balanced", false, false, func(g *Graph) {
		a, b := nonEdge(g)
		if a > b {
			a, b = b, a
		}
		v, w := baseEdge(g, true)
		g.out.del(v, w)
		g.out.add(a, b)
	}},
	{"duplicate-base-entry", false, false, func(g *Graph) {
		for v := range g.out.spans {
			if base := g.out.base(VertexID(v)); len(base) >= 2 {
				base[1] = base[0]
				return
			}
		}
		panic("no span of length 2")
	}},
	{"self-loop", false, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		g.out.add(v, v)
	}},
	{"dead-endpoint-one-sided", false, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		g.out.add(v, deadSlot(g))
	}},
	{"dead-endpoint-symmetric", false, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		d := deadSlot(g)
		g.out.add(v, d)
		g.out.add(d, v)
		g.m++
	}},
	{"alias-spans", false, false, func(g *Graph) {
		var x, y = -1, -1
		for v, sp := range g.out.spans {
			if sp.n > 0 {
				if x < 0 {
					x = v
				} else {
					y = v
					break
				}
			}
		}
		g.out.garbage += int(g.out.spans[y].n) - int(g.out.spans[x].n)
		g.out.spans[y] = g.out.spans[x]
	}},
	{"overlay-shadows-base", false, false, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.out.add(v, w)
		g.out.add(w, v)
		g.m++
	}},
	{"duplicate-free-entry", false, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		g.RemoveVertex(v)
		g.free[1] = g.free[0]
	}},
	{"directed-unchanged", true, true, func(g *Graph) {}},
	{"directed-add-edge", true, true, func(g *Graph) {
		a, b := nonEdge(g)
		g.out.add(a, b)
		g.in.add(b, a)
		g.m++
	}},
	{"directed-drop-in-half", true, false, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.in.del(w, v)
	}},
	{"directed-drop-out-half", true, false, func(g *Graph) {
		v, w := baseEdge(g, false)
		g.out.del(v, w)
	}},
	// The in-half of one edge is replaced by the in-half of a non-edge:
	// both end counts stay m, but the halves no longer agree.
	{"directed-halves-disagree", true, false, func(g *Graph) {
		a, b := nonEdge(g)
		v, w := baseEdge(g, true)
		g.in.del(w, v)
		g.in.add(b, a)
	}},
	{"directed-in-only-edge", true, false, func(g *Graph) {
		a, b := nonEdge(g)
		g.in.add(b, a)
	}},
	{"directed-self-loop", true, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		g.out.add(v, v)
		g.in.add(v, v)
		g.m++
	}},
	{"directed-dead-endpoint", true, false, func(g *Graph) {
		v, _ := baseEdge(g, true)
		d := deadSlot(g)
		g.out.add(v, d)
		g.in.add(d, v)
		g.m++
	}},
	{"directed-in-overlay-shadows-base", true, false, func(g *Graph) {
		v, w := baseEdge(g, true)
		g.in.add(w, v)
		g.m++
		a, b := nonEdge(g)
		g.out.add(a, b)
	}},
}

// diffPayload builds a case's mutated encoding.
func diffPayload(tb testing.TB, c diffCase) []byte {
	tb.Helper()
	g := diffFixture(c.directed)
	if g.OverlayMass() == 0 || len(g.out.arena) == 0 {
		tb.Fatal("fixture lacks a base or an overlay")
	}
	c.mutate(g)
	data, err := g.AppendBinary(nil)
	if err != nil {
		tb.Fatalf("%s: encode: %v", c.name, err)
	}
	return data
}

// TestDecodeMatchesReferenceCheck is the differential rejection test:
// for every mutated encode the production decoder accepts exactly when
// the per-end reference check does, and both agree with the verdict
// the case expects.
func TestDecodeMatchesReferenceCheck(t *testing.T) {
	for _, c := range diffCases {
		t.Run(c.name, func(t *testing.T) {
			data := diffPayload(t, c)
			if _, err := decodeGraph(data); err != nil {
				t.Fatalf("mutation did not survive parsing, so it never reaches the check: %v", err)
			}
			refErr := referenceDecode(data)
			_, err := DecodeGraph(data)
			if (refErr == nil) != c.accept {
				t.Fatalf("reference verdict %v, case expects accept=%v", refErr, c.accept)
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("production %v, reference %v", err, refErr)
			}
			t.Logf("production %v; reference %v", err, refErr)
		})
	}
}

// TestWriteDiffCorpus regenerates the FuzzDecodeGraph seed-corpus files
// for the differential cases when XDGP_WRITE_CORPUS is set:
//
//	XDGP_WRITE_CORPUS=1 go test -run TestWriteDiffCorpus ./internal/graph
func TestWriteDiffCorpus(t *testing.T) {
	if os.Getenv("XDGP_WRITE_CORPUS") == "" {
		t.Skip("set XDGP_WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzDecodeGraph")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeGraph")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range diffCases {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(diffPayload(t, c))))
		if err := os.WriteFile(filepath.Join(dir, c.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

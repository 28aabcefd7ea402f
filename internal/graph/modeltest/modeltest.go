// Package modeltest implements model-based randomized testing of the
// CSR-arena graph store: long pseudo-random mutation sequences (vertex
// and edge addition/removal, ID recycling, explicit compactions, codec
// round-trips) run against both graph.Graph and a naive map-of-sets
// reference model, with full adjacency equality and CheckInvariants
// asserted after every batch. A storage layout rewritten under vertex-ID
// recycling is exactly where silent corruption hides; this harness is the
// lock on it.
//
// Sequences are generated up front from a seed as state-agnostic
// operations (IDs are drawn modulo a fixed slot budget), so a failing run
// shrinks: the harness first binary-searches the shortest failing prefix,
// then greedily drops operations that are not needed to reproduce, and
// reports the minimal sequence with its seed.
package modeltest

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"xdgp/internal/graph"
)

// opKind enumerates generated operations.
type opKind uint8

const (
	opAddVertex opKind = iota
	opEnsureVertex
	opRemoveVertex
	opAddEdge
	opRemoveEdge
	opCompact
	opMaybeCompact
	opCodecRoundTrip
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opAddVertex:
		return "add-vertex"
	case opEnsureVertex:
		return "ensure-vertex"
	case opRemoveVertex:
		return "remove-vertex"
	case opAddEdge:
		return "add-edge"
	case opRemoveEdge:
		return "remove-edge"
	case opCompact:
		return "compact"
	case opMaybeCompact:
		return "maybe-compact"
	case opCodecRoundTrip:
		return "codec-round-trip"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// op is one state-agnostic operation: A and B resolve to vertex IDs
// modulo the run's slot budget at apply time, which keeps a sequence
// meaningful under shrinking.
type op struct {
	kind opKind
	a, b uint32
}

// Options configures one harness run.
type Options struct {
	// Seed selects the operation sequence.
	Seed uint64
	// Ops is the sequence length.
	Ops int
	// Directed selects the graph mode.
	Directed bool
	// MaxSlots is the ID budget operations draw from; small budgets force
	// heavy ID collision, recycling and duplicate-edge traffic.
	MaxSlots int
	// CheckEvery is the batch size between full model comparisons.
	CheckEvery int
	// Check, when set, runs on the graph at every comparison point,
	// after the model comparison passes. An error counts as a divergence
	// and shrinks like one. Check must not mutate the graph.
	Check func(*graph.Graph) error
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 10000
	}
	if o.MaxSlots <= 0 {
		o.MaxSlots = 64
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 64
	}
	return o
}

// Run executes one model-based harness run, failing tb with the minimal
// reproducing sequence on divergence.
func Run(tb testing.TB, opts Options) {
	tb.Helper()
	opts = opts.withDefaults()
	ops := generate(opts)
	if err := replay(ops, opts); err != nil {
		minimal := shrink(ops, opts)
		finalErr := replay(minimal, opts)
		tb.Fatalf("model divergence (seed=%d directed=%v ops=%d): %v\nshrunk to %d ops: %s\nshrunk failure: %v",
			opts.Seed, opts.Directed, opts.Ops, err, len(minimal), formatOps(minimal), finalErr)
	}
}

// generate materialises the operation sequence for a seed. Kind weights
// skew towards edge traffic, with enough removals to keep the free list
// busy.
func generate(opts Options) []op {
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9E3779B97F4A7C15))
	ops := make([]op, opts.Ops)
	for i := range ops {
		var k opKind
		switch r := rng.IntN(100); {
		case r < 12:
			k = opAddVertex
		case r < 20:
			k = opEnsureVertex
		case r < 30:
			k = opRemoveVertex
		case r < 62:
			k = opAddEdge
		case r < 88:
			k = opRemoveEdge
		case r < 92:
			k = opCompact
		case r < 96:
			k = opMaybeCompact
		default:
			k = opCodecRoundTrip
		}
		ops[i] = op{kind: k, a: rng.Uint32(), b: rng.Uint32()}
	}
	return ops
}

// model is the naive reference: adjacency as maps of sets, no sharing
// with the implementation under test beyond the semantic rules.
type model struct {
	directed bool
	adj      map[graph.VertexID]map[graph.VertexID]bool // out-adjacency of live vertices
	radj     map[graph.VertexID]map[graph.VertexID]bool // in-adjacency (directed only)
	edges    int
}

func newModel(directed bool) *model {
	m := &model{
		directed: directed,
		adj:      make(map[graph.VertexID]map[graph.VertexID]bool),
	}
	if directed {
		m.radj = make(map[graph.VertexID]map[graph.VertexID]bool)
	}
	return m
}

func (m *model) has(v graph.VertexID) bool { _, ok := m.adj[v]; return ok }

func (m *model) ensure(v graph.VertexID) {
	if !m.has(v) {
		m.adj[v] = make(map[graph.VertexID]bool)
		if m.directed {
			m.radj[v] = make(map[graph.VertexID]bool)
		}
	}
}

func (m *model) addEdge(u, v graph.VertexID) bool {
	if u == v || !m.has(u) || !m.has(v) || m.adj[u][v] {
		return false
	}
	m.adj[u][v] = true
	if m.directed {
		m.radj[v][u] = true
	} else {
		m.adj[v][u] = true
	}
	m.edges++
	return true
}

func (m *model) removeEdge(u, v graph.VertexID) bool {
	if !m.has(u) || !m.has(v) || !m.adj[u][v] {
		return false
	}
	delete(m.adj[u], v)
	if m.directed {
		delete(m.radj[v], u)
	} else {
		delete(m.adj[v], u)
	}
	m.edges--
	return true
}

func (m *model) removeVertex(v graph.VertexID) {
	if !m.has(v) {
		return
	}
	for w := range m.adj[v] {
		if m.directed {
			delete(m.radj[w], v)
		} else {
			delete(m.adj[w], v)
		}
		m.edges--
	}
	if m.directed {
		for w := range m.radj[v] {
			delete(m.adj[w], v)
			m.edges--
		}
		delete(m.radj, v)
	}
	delete(m.adj, v)
}

// replay drives ops against a fresh graph and model, returning the first
// divergence (nil when the run is clean).
func replay(ops []op, opts Options) error {
	var g *graph.Graph
	if opts.Directed {
		g = graph.NewDirected(0)
	} else {
		g = graph.NewUndirected(0)
	}
	m := newModel(opts.Directed)
	slotMod := uint32(opts.MaxSlots)
	for i, o := range ops {
		u := graph.VertexID(o.a % slotMod)
		v := graph.VertexID(o.b % slotMod)
		switch o.kind {
		case opAddVertex:
			id := g.AddVertex()
			if m.has(id) {
				return fmt.Errorf("op %d %s: AddVertex returned live ID %d", i, o.kind, id)
			}
			if int(id) >= g.NumSlots() {
				return fmt.Errorf("op %d %s: AddVertex returned out-of-table ID %d", i, o.kind, id)
			}
			m.ensure(id)
		case opEnsureVertex:
			g.EnsureVertex(u)
			m.ensure(u)
		case opRemoveVertex:
			g.RemoveVertex(u)
			m.removeVertex(u)
		case opAddEdge:
			want := false
			if m.has(u) && m.has(v) {
				want = m.addEdge(u, v)
			}
			if got := g.AddEdge(u, v); got != want {
				return fmt.Errorf("op %d %s(%d,%d): graph=%v model=%v", i, o.kind, u, v, got, want)
			}
		case opRemoveEdge:
			want := m.removeEdge(u, v)
			if got := g.RemoveEdge(u, v); got != want {
				return fmt.Errorf("op %d %s(%d,%d): graph=%v model=%v", i, o.kind, u, v, got, want)
			}
		case opCompact:
			g.Compact()
		case opMaybeCompact:
			g.MaybeCompact()
		case opCodecRoundTrip:
			var err error
			if g, err = roundTrip(g); err != nil {
				return fmt.Errorf("op %d %s: %w", i, o.kind, err)
			}
		}
		if (i+1)%opts.CheckEvery == 0 || i == len(ops)-1 {
			if err := compare(g, m); err != nil {
				return fmt.Errorf("after op %d (%s): %w", i, o.kind, err)
			}
			if opts.Check != nil {
				if err := opts.Check(g); err != nil {
					return fmt.Errorf("after op %d (%s): %w", i, o.kind, err)
				}
			}
		}
	}
	return nil
}

// compare asserts full equivalence between implementation and model.
func compare(g *graph.Graph, m *model) error {
	if err := g.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	if g.NumVertices() != len(m.adj) {
		return fmt.Errorf("vertices: graph=%d model=%d", g.NumVertices(), len(m.adj))
	}
	if g.NumEdges() != m.edges {
		return fmt.Errorf("edges: graph=%d model=%d", g.NumEdges(), m.edges)
	}
	for slot := 0; slot < g.NumSlots(); slot++ {
		v := graph.VertexID(slot)
		if g.Has(v) != m.has(v) {
			return fmt.Errorf("liveness of %d: graph=%v model=%v", v, g.Has(v), m.has(v))
		}
		if !g.Has(v) {
			if g.Degree(v) != 0 || g.Neighbors(v) != nil {
				return fmt.Errorf("dead vertex %d reports adjacency", v)
			}
			continue
		}
		if err := compareAdjacency(v, g.Degree(v), collect(g.NeighborCursor(v)), m.adj[v]); err != nil {
			return fmt.Errorf("out-adjacency: %w", err)
		}
		if m.directed {
			if err := compareAdjacency(v, g.InDegree(v), collect(g.InNeighborCursor(v)), m.radj[v]); err != nil {
				return fmt.Errorf("in-adjacency: %w", err)
			}
		}
		// The three read paths must agree with each other too.
		if ns := g.Neighbors(v); len(ns) != g.Degree(v) {
			return fmt.Errorf("vertex %d: Neighbors len %d != Degree %d", v, len(ns), g.Degree(v))
		}
		for w := range m.adj[v] {
			if !g.HasEdge(v, w) {
				return fmt.Errorf("HasEdge(%d,%d) false, model has it", v, w)
			}
		}
		if err := compareProbe(g, v, m.adj[v]); err != nil {
			return err
		}
	}
	return nil
}

// compareProbe runs one ascending Cursor.Contains sweep over v's
// neighbourhood and requires every answer to match the model, asking each
// query twice. On small slot budgets the sweep visits every slot ID. On
// wide ones, where that would be quadratic, it visits a strided sample
// plus each model neighbour and the IDs either side of it.
func compareProbe(g *graph.Graph, v graph.VertexID, want map[graph.VertexID]bool) error {
	slots := g.NumSlots()
	stride := 1 + slots/128
	qs := make([]graph.VertexID, 0, 2+slots/stride+3*len(want))
	qs = append(qs, -1)
	for x := int(v) % stride; x < slots; x += stride {
		qs = append(qs, graph.VertexID(x))
	}
	qs = append(qs, graph.VertexID(slots))
	if stride > 1 {
		for w := range want {
			qs = append(qs, w-1, w, w+1)
		}
		slices.Sort(qs)
	}
	c := g.NeighborCursor(v)
	for _, x := range qs {
		if in := want[x]; c.Contains(x) != in || c.Contains(x) != in {
			return fmt.Errorf("vertex %d: Contains(%d) disagrees with the model (%v)", v, x, in)
		}
	}
	return nil
}

func compareAdjacency(v graph.VertexID, degree int, got []graph.VertexID, want map[graph.VertexID]bool) error {
	if degree != len(want) {
		return fmt.Errorf("vertex %d: degree graph=%d model=%d", v, degree, len(want))
	}
	if len(got) != len(want) {
		return fmt.Errorf("vertex %d: cursor yields %d neighbours, model %d", v, len(got), len(want))
	}
	seen := make(map[graph.VertexID]bool, len(got))
	for _, w := range got {
		if seen[w] {
			return fmt.Errorf("vertex %d: neighbour %d yielded twice", v, w)
		}
		seen[w] = true
		if !want[w] {
			return fmt.Errorf("vertex %d: neighbour %d not in model", v, w)
		}
	}
	return nil
}

func collect(c graph.Cursor) []graph.VertexID {
	var out []graph.VertexID
	for {
		w, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, w)
	}
}

// roundTrip encodes the graph, decodes it back, and verifies the re-encode
// is byte-identical — the determinism contract a mid-overlay checkpoint
// depends on. The decoded graph replaces the original so the run
// continues on restored state, exercising restore-then-mutate paths.
func roundTrip(g *graph.Graph) (*graph.Graph, error) {
	a, err := g.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	dec, err := graph.DecodeGraph(a)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	b, err := dec.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("re-encode: %w", err)
	}
	if !bytes.Equal(a, b) {
		return nil, fmt.Errorf("re-encode differs: %d vs %d bytes", len(a), len(b))
	}
	return dec, nil
}

// shrink minimises a failing sequence: binary-search the shortest failing
// prefix, then greedily remove chunks that are not needed to reproduce.
func shrink(ops []op, opts Options) []op {
	fails := func(seq []op) bool { return replay(seq, opts) != nil }
	// Shortest failing prefix.
	lo, hi := 1, len(ops)
	for lo < hi {
		mid := (lo + hi) / 2
		if fails(ops[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur := append([]op(nil), ops[:lo]...)
	// Greedy chunk removal, halving chunk size.
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]op(nil), cur[:start]...), cur[start+chunk:]...)
			if fails(cand) {
				cur = cand
			} else {
				start += chunk
			}
		}
	}
	return cur
}

func formatOps(ops []op) string {
	out := ""
	for i, o := range ops {
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("%s(%d,%d)", o.kind, o.a, o.b)
	}
	return out
}

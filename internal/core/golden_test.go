package core_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"xdgp/internal/adaptive"
	"xdgp/internal/bsp"
	"xdgp/internal/core"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// The step-path ledger: each core configuration in both schedules (full
// sweep and incremental) and the BSP-side adaptive service run a fixed
// graph through a fixed mutation stream, and the FNV-64 hash of the final
// assignment table is compared against testdata/golden.json. A change
// that moves any vertex fails here. Placements do not depend on the
// shard count, so the ledger keeps one hash per (row, schedule), and
// TestLedgerShardCountIndependent asserts that every shard count and
// cluster size reproduces it. Regenerate with
//
//	go test ./internal/core -run TestGoldenLedger -update
//
// and say in CHANGES.md why the placements changed.

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

const (
	goldenVertices = 600
	goldenK        = 4
	goldenTicks    = 10
	goldenSteps    = 4 // core iterations per tick
	goldenSupers   = 2 // BSP supersteps per tick
	goldenWeight   = 4 // WorkloadWeight of the heat rows
)

// goldenGraph is a Barabási–Albert graph, or the same edge set directed.
func goldenGraph(directed bool) *graph.Graph {
	g := gen.BarabasiAlbert(goldenVertices, 3, 11)
	if !directed {
		return g
	}
	d := graph.NewDirected(g.NumSlots())
	var b graph.Batch
	g.ForEachEdge(func(u, v graph.VertexID) { b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v}) })
	d.Apply(b)
	return d
}

// goldenStream draws one batch per tick against a shadow of g: edge
// removals of live edges, edge additions that also grow the graph by a
// few vertices, and every third tick a vertex removal. Batches are
// small, so the touched vertices keep pending overlays and the scorers
// walk both clean spans and cursors.
func goldenStream(g *graph.Graph) []graph.Batch {
	rng := rand.New(rand.NewPCG(29, 3))
	shadow := g.Clone()
	out := make([]graph.Batch, goldenTicks)
	for t := range out {
		n := shadow.NumSlots()
		var b graph.Batch
		for j := 0; j < 30; j++ {
			u := graph.VertexID(rng.IntN(n))
			if nbrs := shadow.Neighbors(u); j%3 == 0 && len(nbrs) > 0 {
				b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: nbrs[rng.IntN(len(nbrs))]})
				continue
			}
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: graph.VertexID(rng.IntN(n + 8))})
		}
		if t%3 == 1 {
			b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: graph.VertexID(rng.IntN(n))})
		}
		shadow.Apply(b)
		out[t] = b
	}
	return out
}

// goldenSamples is tick t's read-sample trace: a hot spot that moves
// with t plus a spread of single reads.
func goldenSamples(t, slots int) []graph.VertexID {
	s := make([]graph.VertexID, 0, 24)
	for j := 0; j < 24; j++ {
		s = append(s, graph.VertexID((t*37+j*j*7)%slots))
	}
	return s
}

// hashTable is the FNV-64a hash of an assignment table, one
// little-endian int32 per slot.
func hashTable(table []partition.ID) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range table {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// coreRow is a configuration the core ledger runs in both schedules.
// fullIsInc marks the rows whose full sweep and incremental schedule must
// place identically: the frontier wakes every vertex whose decision
// inputs changed. The heat rows are left out because a fold that adds
// heat rescales every hot vote through the maximum, and FoldHeat wakes
// only the sampled neighbourhoods.
type coreRow struct {
	name      string
	directed  bool
	heat      bool
	fullIsInc bool
	mut       func(*core.Config)
}

var coreRows = []coreRow{
	{name: "plain", fullIsInc: true},
	{name: "heat", heat: true, mut: func(c *core.Config) { c.WorkloadWeight = goldenWeight }},
	{name: "balance-edges", fullIsInc: true, mut: func(c *core.Config) { c.BalanceEdges = true }},
	{name: "directed", directed: true, fullIsInc: true},
	{name: "directed-heat", directed: true, heat: true, mut: func(c *core.Config) { c.WorkloadWeight = goldenWeight }},
}

// schedules names the two core schedules of every row.
var schedules = []struct {
	name        string
	incremental bool
}{{"full", false}, {"inc", true}}

// shardCols are the ways to run one cell: shards is the Parallelism of
// one process, or with cluster the number of replicas stepping through
// StepClusterDecide/Apply (each replica runs one local shard).
var shardCols = []struct {
	name    string
	shards  int
	cluster bool
}{
	{"par1", 1, false},
	{"par2", 2, false},
	{"par4", 4, false},
	{"par8", 8, false},
	{"cluster2", 2, true},
	{"cluster3", 3, true},
}

// runCoreCell runs one cell and returns its hash.
func runCoreCell(t *testing.T, r coreRow, incremental bool, shards int, cluster bool) string {
	t.Helper()
	g := goldenGraph(r.directed)
	stream := goldenStream(g)
	cfg := core.DefaultConfig(goldenK, 5)
	cfg.RecordEvery = 0
	cfg.Incremental = incremental
	if !cluster {
		cfg.Parallelism = shards
	}
	if r.mut != nil {
		r.mut(&cfg)
	}
	replicas := 1
	if cluster {
		replicas = shards
	}
	ps := make([]*core.Partitioner, replicas)
	for i := range ps {
		gc := g.Clone()
		p, err := core.New(gc, partition.Hash(gc, goldenK), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	decs := make([]*core.ShardDecision, replicas)
	for tick, b := range stream {
		for _, p := range ps {
			p.ApplyBatch(b)
			if r.heat {
				p.FoldHeat(0.8, goldenSamples(tick, p.Graph().NumSlots()), 4)
			}
		}
		for s := 0; s < goldenSteps; s++ {
			if !cluster {
				ps[0].Step()
				continue
			}
			for i, p := range ps {
				d, err := p.StepClusterDecide(i, replicas)
				if err != nil {
					t.Fatal(err)
				}
				decs[i] = d
			}
			for _, p := range ps {
				if _, err := p.StepClusterApply(decs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	h := hashTable(ps[0].Assignment().Table())
	for i, p := range ps[1:] {
		if got := hashTable(p.Assignment().Table()); got != h {
			t.Fatalf("cluster replica %d hashes %s, replica 0 %s", i+1, got, h)
		}
	}
	return h
}

// selfProgram keeps every vertex active with one self-message per
// superstep, so the engine measures a per-partition cost every barrier
// and the hot-spot extension sees the load.
type selfProgram struct{}

func (selfProgram) Init(*bsp.VertexContext[struct{}]) any { return nil }
func (selfProgram) Compute(ctx *bsp.VertexContext[struct{}], _ []struct{}) {
	ctx.SendTo(ctx.ID(), struct{}{})
}

// adaptiveRows are the service configurations each adaptive path runs
// with; every row starts from a skewed assignment (a third of the
// vertices crowd partition 0) so the hot-spot drain has load to shed.
// plain and directed are DefaultConfig, as the analytics workloads run
// it. The heat-free rows must place identically in both schedules.
var adaptiveRows = []struct {
	name     string
	directed bool
	hotspot  bool
	heat     bool
}{
	{"plain", false, false, false},
	{"directed", true, false, false},
	{"hotspot", false, true, false},
	{"hotspot-heat", false, true, true},
	{"directed-hotspot", true, true, false},
	{"directed-heat", true, false, true},
}

// goldenHeat is a frozen heat view over the first slots/2 slots (later
// vertices are past the view and vote as cold).
func goldenHeat(t, slots int) []float32 {
	h := make([]float32, slots/2)
	for _, v := range goldenSamples(t, len(h)) {
		h[v] += 3
	}
	return h
}

func runAdaptiveCell(t *testing.T, directed, hotspot, heat, incremental bool) string {
	t.Helper()
	g := goldenGraph(directed)
	var batches []graph.Batch
	for _, b := range goldenStream(g) {
		batches = append(batches, b)
		for i := 1; i < goldenSupers; i++ {
			batches = append(batches, nil)
		}
	}
	asn := partition.Hash(g, goldenK)
	g.ForEachVertex(func(v graph.VertexID) {
		if v%3 == 0 {
			asn.Assign(v, 0)
		}
	})
	e, err := bsp.NewEngine(g, asn, selfProgram{}, bsp.Config{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptive.DefaultConfig(5)
	cfg.HotSpotAware = hotspot
	cfg.Incremental = incremental
	if heat {
		cfg.WorkloadWeight = goldenWeight
	}
	svc, err := adaptive.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetRepartitioner(svc)
	e.SetStream(graph.NewSliceStream(batches))
	for tick := 0; tick < goldenTicks; tick++ {
		if heat && tick%5 == 0 {
			svc.SetHeat(goldenHeat(tick, g.NumSlots()))
		}
		e.RunSupersteps(goldenSupers)
	}
	return hashTable(e.Addr().Table())
}

// TestGoldenLedger compares every cell of the step-path ledger with
// testdata/golden.json (or rewrites the file under -update).
func TestGoldenLedger(t *testing.T) {
	got := map[string]string{}
	for _, r := range coreRows {
		for _, sc := range schedules {
			got["core/"+r.name+"/"+sc.name] = runCoreCell(t, r, sc.incremental, 1, false)
		}
	}
	for _, r := range adaptiveRows {
		for _, inc := range []bool{false, true} {
			col := "full"
			if inc {
				col = "inc"
			}
			got["adaptive/"+r.name+"/"+col] = runAdaptiveCell(t, r.directed, r.hotspot, r.heat, inc)
		}
	}

	path := filepath.Join("testdata", "golden.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the ledger)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	cells := make([]string, 0, len(got))
	for c := range got {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		if want[c] != got[c] {
			t.Errorf("%s: assignment hash %s, ledger %s", c, got[c], want[c])
		}
	}
	for c := range want {
		if _, ok := got[c]; !ok {
			t.Errorf("ledger cell %s is no longer produced", c)
		}
	}
}

// TestLedgerShardCountIndependent asserts that every core row places
// identically, in both schedules, at every Parallelism and cluster size:
// the draws are keyed per vertex and the grant order is row then slot.
func TestLedgerShardCountIndependent(t *testing.T) {
	for _, r := range coreRows {
		for _, sc := range schedules {
			want := runCoreCell(t, r, sc.incremental, 1, false)
			for _, c := range shardCols[1:] {
				if got := runCoreCell(t, r, sc.incremental, c.shards, c.cluster); got != want {
					t.Errorf("core/%s/%s: %s hashes %s, par1 %s", r.name, sc.name, c.name, got, want)
				}
			}
		}
	}
}

// TestLedgerFullMatchesIncremental is the scheduler-completeness oracle:
// with the same keyed draws, the incremental schedule must place exactly
// as the full sweep on every row whose wakes are complete: the heat-free
// core rows and the heat-free adaptive rows.
func TestLedgerFullMatchesIncremental(t *testing.T) {
	for _, r := range coreRows {
		if !r.fullIsInc {
			continue
		}
		if full, inc := runCoreCell(t, r, false, 1, false), runCoreCell(t, r, true, 1, false); full != inc {
			t.Errorf("core/%s: full sweep hashes %s, incremental %s", r.name, full, inc)
		}
	}
	for _, r := range adaptiveRows {
		if r.heat {
			continue
		}
		if full, inc := runAdaptiveCell(t, r.directed, r.hotspot, false, false), runAdaptiveCell(t, r.directed, r.hotspot, false, true); full != inc {
			t.Errorf("adaptive/%s: full sweep hashes %s, incremental %s", r.name, full, inc)
		}
	}
}

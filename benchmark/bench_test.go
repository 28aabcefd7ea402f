package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"xdgp/internal/graph"
)

// Toy sizes: every workload runs in well under a second per round.
var (
	toyBulk      = daemonSize{n: 3000, perTick: 128, frame: 64, setups: 1, minRounds: 2}
	toyChurn     = daemonSize{n: 3000, perTick: 64, frame: 32, ticks: 500, reads: 8, shiftEvery: 10, minRounds: 2}
	toyAnalytics = analyticsSize{n: 600, batches: 50, rate: 0.01, warm: 2500, drain: 2500, instances: 3, minRounds: 2}
)

func toyRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	o := options{workload: workload, seed: seed, trace: trace, out: t.TempDir()}
	var rep *report
	switch workload {
	case "bulk-load":
		rep = bulkLoad(toyBulk, o)
	case "steady-churn":
		rep = steadyChurnWorkload(toyChurn, o)
	case "analytics-churn":
		rep = analyticsChurn(toyAnalytics, o)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d trace=%v: correct=%v, %d/%d failed\n%v", workload, seed, trace, rep.correct, rep.failed, rep.attempted, rep.notes)
	}
	return rep
}

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, n, err := percentile(xs, 0.99); err == nil || n != 999 {
		t.Fatalf("p99 of 999 samples: n=%d err=%v, want a refusal reporting 999 samples", n, err)
	}
	xs = append(xs, 1000)
	v, n, err := percentile(xs, 0.99)
	if err != nil || n != 1000 || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (n=%d, err=%v), want 990 over 1000 samples", v, n, err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must be refused")
	}
	if v, n, err := percentile(xs[:20], 0.5); err != nil || n != 20 || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (n=%d, err=%v), want 10", v, n, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 35, End: 50, Parent: 0},  // inside a ∪ b
		{Name: "d", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "e", Start: 12, End: 20, Parent: 1},  // grandchild: charged to a only
	}
	got := selfTimes(spans)
	// parent: children cover [10,60] ∪ [90,100] = 60 of 100.
	want := []int64{40, 22, 30, 15, 30, 8}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	fingerprint := func(seed int64) []uint64 {
		edges := baGrowth(2000, 3, seed)
		g := buildGraph(2000, edges)
		churn := steadyChurn(g.Clone(), 20, 64, seed)
		reads := zipfReads(g, 20, 16, 5, zipfS, seed)
		rewires := rewireChurn(g.Clone(), 0.01, 5, seed)
		var out []uint64
		for _, part := range []func(*hasher){
			func(h *hasher) { h.batches(edges) },
			func(h *hasher) { h.batches(churn...) },
			func(h *hasher) { h.vertices(reads...) },
			func(h *hasher) { h.batches(rewires...) },
		} {
			h := newHasher()
			part(h)
			out = append(out, h.sum())
		}
		return out
	}
	a, b, c := fingerprint(1), fingerprint(1), fingerprint(2)
	names := []string{"BA growth", "steady churn", "Zipf reads", "rewire churn"}
	for i, name := range names {
		if a[i] != b[i] {
			t.Errorf("%s differs between two draws of seed 1", name)
		}
		if a[i] == c[i] {
			t.Errorf("%s is identical for seeds 1 and 2", name)
		}
	}
}

func TestBAGrowthShape(t *testing.T) {
	edges := baGrowth(5000, 3, 7)
	if len(edges) != baEdges(5000, 3) {
		t.Fatalf("%d edges, want %d", len(edges), baEdges(5000, 3))
	}
	g := buildGraph(5000, edges)
	if g.NumVertices() != 5000 || g.NumEdges() != len(edges) {
		t.Fatalf("graph has %d vertices / %d edges, want 5000 / %d (duplicate or self-loop edges)", g.NumVertices(), g.NumEdges(), len(edges))
	}
	for i, m := range edges {
		if m.Kind != graph.MutAddEdge || (i >= 6 && m.U <= m.V) {
			t.Fatalf("edge %d = %+v: not in growth order", i, m)
		}
	}
}

func TestSteadyChurnKeepsEdgeCount(t *testing.T) {
	g := buildGraph(3000, baGrowth(3000, 3, 3))
	before := g.NumEdges()
	for i, b := range steadyChurn(g, 10, 100, 3) {
		adds, removes := 0, 0
		for _, m := range b {
			switch m.Kind {
			case graph.MutAddEdge:
				adds++
			case graph.MutRemoveEdge:
				removes++
			}
		}
		if adds != 50 || removes != 50 {
			t.Fatalf("batch %d: %d adds, %d removes, want 50 each", i, adds, removes)
		}
	}
	if g.NumEdges() != before {
		t.Fatalf("edge count drifted from %d to %d", before, g.NumEdges())
	}
}

// TestWorkloadsRepeatExactly runs each workload twice on one seed and
// requires identical input and placement hashes and identical quality
// counts: the property that makes those counts comparable across runs.
func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range []string{"bulk-load", "steady-churn", "analytics-churn"} {
		t.Run(w, func(t *testing.T) {
			a, b := toyRun(t, w, 5, false), toyRun(t, w, 5, false)
			if a.inputHash != b.inputHash || a.placementHash != b.placementHash {
				t.Fatalf("hashes differ: input %016x vs %016x, placement %016x vs %016x",
					a.inputHash, b.inputHash, a.placementHash, b.placementHash)
			}
			for _, m := range []string{"cut_ratio", "migrations_per_kmut"} {
				x, okA := a.e2e[m]
				y, okB := b.e2e[m]
				if !okA || !okB || x != y {
					t.Errorf("%s: %v vs %v", m, x, y)
				}
			}
			if w == "analytics-churn" {
				m := "bsp.remote_msg_frac"
				if x, y := a.layers[m], b.layers[m]; x != y || x.Value == 0 {
					t.Errorf("%s: %v vs %v", m, x, y)
				}
			}
			for _, d := range endToEnd {
				if m, ok := a.e2e[d.name]; !ok || m.Value == 0 {
					t.Errorf("end-to-end metric %s = %v (measured: %v), want a non-zero value", d.name, m.Value, ok)
				}
			}
			other := toyRun(t, w, 6, false)
			if other.inputHash == a.inputHash {
				t.Error("seeds 5 and 6 generated the same input")
			}
		})
	}
}

// TestLayerReplayReproducesDaemon runs the traced daemon workloads at toy
// scale. The replay gate fails the run unless the replay ends on the
// daemon's placement hash, so a correct report is the check; the test also
// requires the per-layer metrics each layer owes.
func TestLayerReplayReproducesDaemon(t *testing.T) {
	want := map[string][]string{
		"bulk-load":    {"graph.frame_decode_ns_per_mut", "core.step_ms_p50", "partition.freeze_ms_p50", "server.tick_ms_p50", "replica.catchup_ms_p50", "trace.overhead.mut_per_s"},
		"steady-churn": {"heat.samples_per_tick", "core.fold_heat_ms_p50", "snapshot.read_ms", "snapshot.mb", "server.read_ms_p50", "trace.overhead.fresh_p50_ms"},
	}
	for w, names := range want {
		t.Run(w, func(t *testing.T) {
			rep := toyRun(t, w, 9, true)
			for _, n := range names {
				if _, ok := rep.layers[n]; !ok {
					t.Errorf("traced run lacks %s", n)
				}
			}
			if len(rep.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestMetricsMatchManifest holds the metric lists the benchmark prints to
// BENCHMARK.json: same names, same units, same order.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key      string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: manifest declares %d metrics, benchmark prints %d", c.key, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: manifest %s (%s), benchmark %s (%s)", c.key, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

// TestResultHoldsEveryMetric checks the result line of a toy run of each
// workload: every declared metric is present, traced and untraced.
func TestResultHoldsEveryMetric(t *testing.T) {
	for _, w := range []string{"bulk-load", "steady-churn", "analytics-churn"} {
		t.Run(w, func(t *testing.T) {
			rep := toyRun(t, w, 11, true)
			for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				got := rep.result(traced)
				if len(got) != len(defs) || !rep.correct {
					t.Fatalf("traced=%v: %d metrics for %d declared, correct=%v\n%v", traced, len(got), len(defs), rep.correct, rep.notes)
				}
			}
		})
	}
}

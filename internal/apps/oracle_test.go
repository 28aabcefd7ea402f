package apps

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"xdgp/internal/adaptive"
	"xdgp/internal/bsp"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Differential harness for the streaming programs: run randomized churn
// batches through an engine (with and without the adaptive repartitioner),
// run to quiescence after every batch, and diff the vertex values against
// the from-scratch oracles. On divergence the failing sequence is shrunk
// modeltest-style (binary-search the shortest failing prefix, then greedily
// drop interior batches) before reporting.

// churnSlotBudget bounds the vertex ID space of generated mutations. Small
// graphs shake out repair bugs fastest: every mutation is a large relative
// change, and oracle checks stay cheap enough to run after every batch.
const churnSlotBudget = 48

type streamingCase struct {
	name string
	prog func() suiteProg
	// batchCap bounds the supersteps allowed to re-quiesce after one
	// batch. PageRank needs headroom: residual waves die geometrically
	// but slowly near the announcement tolerance.
	batchCap int
}

func streamingCases() []streamingCase {
	return []streamingCase{
		{name: "cc", prog: func() suiteProg { return suite(NewStreamingCC()) }, batchCap: 400},
		{name: "sssp", prog: func() suiteProg { return suite(NewStreamingSSSP(0)) }, batchCap: 400},
		{name: "pagerank", prog: func() suiteProg { return suite(NewStreamingPageRank()) }, batchCap: 900},
	}
}

// randChurnBatch draws 1–5 state-agnostic mutations: IDs come from the
// fixed slot budget regardless of what is currently live, so sequences
// replay identically during shrinking and no-ops exercise the engine's
// idempotence paths.
func randChurnBatch(rng *rand.Rand) graph.Batch {
	n := 1 + rng.Intn(5)
	b := make(graph.Batch, 0, n)
	for i := 0; i < n; i++ {
		u := graph.VertexID(rng.Intn(churnSlotBudget))
		v := graph.VertexID(rng.Intn(churnSlotBudget))
		switch r := rng.Intn(100); {
		case r < 45:
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: u, V: v})
		case r < 70:
			b = append(b, graph.Mutation{Kind: graph.MutRemoveEdge, U: u, V: v})
		case r < 85:
			b = append(b, graph.Mutation{Kind: graph.MutAddVertex, U: u})
		default:
			b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: u})
		}
	}
	return b
}

// runChurnSequence replays batches through a fresh engine, quiescing and
// oracle-checking after every batch. It returns the index of the first
// diverging batch and the divergence (or -1, nil).
func runChurnSequence(c streamingCase, batches []graph.Batch, adapt bool) (int, error) {
	g := graph.NewUndirected(0)
	prog := c.prog()
	e, err := prog.start(g, partition.Hash(g, 3), bsp.Config{Workers: 2, Seed: 7})
	if err != nil {
		return -1, err
	}
	if adapt {
		svc, err := adaptive.New(adaptive.DefaultConfig(11))
		if err != nil {
			return -1, err
		}
		e.SetRepartitioner(svc)
	}
	for i, b := range batches {
		e.SetStream(graph.NewSliceStream([]graph.Batch{b}))
		if _, done := e.RunUntilQuiescent(c.batchCap); !done {
			return i, fmt.Errorf("no quiescence within %d supersteps", c.batchCap)
		}
		if err := VerifyStreaming(e, prog.program()); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// shrinkChurnFailure minimises a failing sequence: binary-search the
// shortest failing prefix, then greedily drop interior batches while the
// failure reproduces.
func shrinkChurnFailure(c streamingCase, batches []graph.Batch, adapt bool) ([]graph.Batch, error) {
	fails := func(seq []graph.Batch) (bool, error) {
		i, err := runChurnSequence(c, seq, adapt)
		return i >= 0, err
	}
	lo, hi := 1, len(batches)
	for lo < hi {
		mid := (lo + hi) / 2
		if bad, _ := fails(batches[:mid]); bad {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	seq := append([]graph.Batch(nil), batches[:lo]...)
	for i := len(seq) - 2; i >= 0; i-- {
		cand := append(append([]graph.Batch(nil), seq[:i]...), seq[i+1:]...)
		if bad, _ := fails(cand); bad {
			seq = cand
		}
	}
	_, err := runChurnSequence(c, seq, adapt)
	return seq, err
}

// checkChurnSeed generates nBatches of churn from the seed and fails the
// test with a shrunk reproduction on any divergence. Odd seeds run with
// the adaptive repartitioner migrating underneath the computation.
func checkChurnSeed(t *testing.T, c streamingCase, seed int64, nBatches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batches := make([]graph.Batch, nBatches)
	for i := range batches {
		batches[i] = randChurnBatch(rng)
	}
	adapt := seed%2 == 1
	i, err := runChurnSequence(c, batches, adapt)
	if err == nil {
		return
	}
	seq, serr := shrinkChurnFailure(c, batches[:i+1], adapt)
	t.Fatalf("%s: seed %d (adaptive=%v) diverged at batch %d: %v\nshrunk to %d batches (%v): %v",
		c.name, seed, adapt, i, err, len(seq), serr, seq)
}

// oracleSeeds and oracleBatches size the tier-1 run: 3 programs × 4 seeds
// × the per-case batch counts ≈ 10k oracle-checked churn batches.
var oracleSeeds = []int64{1, 2, 3, 4}

func oracleBatches(name string) int {
	if name == "pagerank" {
		return 550 // convergence tails make PageRank batches ~5× dearer
	}
	return 1000
}

func TestStreamingCCMatchesOracle(t *testing.T) {
	c := streamingCases()[0]
	for _, seed := range oracleSeeds {
		checkChurnSeed(t, c, seed, oracleBatches(c.name))
	}
}

func TestStreamingSSSPMatchesOracle(t *testing.T) {
	c := streamingCases()[1]
	for _, seed := range oracleSeeds {
		checkChurnSeed(t, c, seed, oracleBatches(c.name))
	}
}

func TestStreamingPageRankMatchesOracle(t *testing.T) {
	c := streamingCases()[2]
	for _, seed := range oracleSeeds {
		checkChurnSeed(t, c, seed, oracleBatches(c.name))
	}
}

// TestStreamingOracleSoak runs the differential harness with a wall-clock
// budget from ANALYTICS_BUDGET (e.g. "5m"), rotating programs and fresh
// seeds until it expires — the nightly long-run twin of the tier-1 tests,
// mirroring MODELTEST_BUDGET.
func TestStreamingOracleSoak(t *testing.T) {
	budget := os.Getenv("ANALYTICS_BUDGET")
	if budget == "" {
		t.Skip("set ANALYTICS_BUDGET (e.g. 5m) to run the soak")
	}
	d, err := time.ParseDuration(budget)
	if err != nil {
		t.Fatalf("bad ANALYTICS_BUDGET %q: %v", budget, err)
	}
	deadline := time.Now().Add(d)
	cases := streamingCases()
	total := 0
	for seed := int64(1000); time.Now().Before(deadline); seed++ {
		c := cases[int(seed)%len(cases)]
		n := oracleBatches(c.name)
		checkChurnSeed(t, c, seed, n)
		total += n
	}
	t.Logf("soak clean: %d oracle-checked churn batches", total)
}

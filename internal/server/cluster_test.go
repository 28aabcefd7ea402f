package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xdgp/internal/cluster"
	"xdgp/internal/graph"
	"xdgp/internal/snapshot"
)

// synthBatch derives a deterministic mutation batch from a tick index:
// mostly edge adds over a 400-slot ID space, with occasional removes so
// the cluster path sees the full mutation vocabulary.
func synthBatch(step, n int) graph.Batch {
	r := uint64(step)*2654435761 + 12345
	next := func(m uint64) uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return (r >> 33) % m
	}
	b := make(graph.Batch, 0, n)
	for i := 0; i < n; i++ {
		u := graph.VertexID(next(400))
		v := graph.VertexID(next(400))
		if u == v {
			continue
		}
		kind := graph.MutAddEdge
		if next(10) == 0 {
			kind = graph.MutRemoveEdge
		}
		b = append(b, graph.Mutation{Kind: kind, U: u, V: v})
	}
	return b
}

// newClusterServers builds n manual-tick daemons sharing one in-process
// exchange, plus the mem cluster itself (caller closes it).
func newClusterServers(t *testing.T, n int, mutate func(i int, c *Config)) ([]*Server, *cluster.MemCluster) {
	t.Helper()
	mem, err := cluster.NewMemCluster(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() }) //nolint:errcheck // teardown
	srvs := make([]*Server, n)
	for i := range srvs {
		ex, err := mem.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(5, 21)
		cfg.TickEvery = 0 // manual tick mode
		cfg.Exchange = ex
		if mutate != nil {
			mutate(i, &cfg)
		}
		if srvs[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return srvs, mem
}

// tickAll runs one tick on every server concurrently (cluster rounds are
// barriers — ticking them sequentially would deadlock) and returns the
// per-shard results.
func tickAll(t *testing.T, srvs []*Server) []TickResult {
	t.Helper()
	results := make([]TickResult, len(srvs))
	var wg sync.WaitGroup
	for i, s := range srvs {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			results[i] = s.TickNow()
		}(i, s)
	}
	wg.Wait()
	for i, s := range srvs {
		if err := s.ClusterError(); err != nil {
			t.Fatalf("shard %d cluster error: %v", i, err)
		}
		_ = i
	}
	return results
}

// routingTable snapshots a server's published placements for the whole
// slot space.
func routingTable(s *Server, slots int) []int {
	snap := s.Routing()
	out := make([]int, slots)
	for v := 0; v < slots; v++ {
		out[v] = int(snap.Table.Of(graph.VertexID(v)))
	}
	return out
}

func tablesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterServerMatchesSingleProcess is the tentpole's contract at
// the daemon layer: N cooperating apartd processes (in-process exchange,
// manual ticks) produce byte-identical placements — tick for tick — to
// one single-shard daemon on the same seed and stream.
func TestClusterServerMatchesSingleProcess(t *testing.T) {
	const n = 3
	srvs, _ := newClusterServers(t, n, nil)

	refCfg := DefaultConfig(5, 21)
	refCfg.TickEvery = 0
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	for tick := 0; tick < 25; tick++ {
		b := synthBatch(tick, 60)
		// The batch lands on a rotating shard: the exchange, not the
		// local queue, is what makes it reach every replica.
		if _, ok := srvs[tick%n].Enqueue(b); !ok {
			t.Fatalf("tick %d: enqueue rejected", tick)
		}
		if _, ok := ref.Enqueue(b); !ok {
			t.Fatalf("tick %d: ref enqueue rejected", tick)
		}

		want := ref.TickNow()
		results := tickAll(t, srvs)

		refTable := routingTable(ref, 400)
		for i, got := range results {
			if got != want {
				t.Fatalf("tick %d shard %d: result %+v, single-process %+v", tick, i, got, want)
			}
			if !tablesEqual(routingTable(srvs[i], 400), refTable) {
				t.Fatalf("tick %d shard %d: placements diverge from single-process", tick, i)
			}
		}
		for i := 1; i < n; i++ {
			if srvs[i].clusterHash.Load() != srvs[0].clusterHash.Load() {
				t.Fatalf("tick %d: shard %d hash differs from shard 0", tick, i)
			}
		}
	}
	if st := srvs[1].Stats(); st.Cluster == nil || st.Cluster.Shard != 1 || st.Cluster.Shards != n ||
		st.Cluster.Rounds == 0 || st.Cluster.Error != "" {
		t.Fatalf("cluster stats block: %+v", srvs[1].Stats().Cluster)
	}
}

// TestClusterServerShardLossAndRejoin kills one shard after a
// checkpoint, lets the survivors keep ingesting and ticking (they block
// on the barrier but keep serving reads), then restores the dead shard
// from its stale checkpoint: journal replay must walk it through every
// missed round back to byte-identical state, after which live rounds
// resume for everyone.
func TestClusterServerShardLossAndRejoin(t *testing.T) {
	const (
		n         = 3
		ckptTick  = 4  // shard 2 checkpoints after this tick...
		crashTick = 9  // ...and dies after this one
		lastTick  = 14 // survivors push on through this tick
	)
	ckptPath := filepath.Join(t.TempDir(), "shard2.snap")
	srvs, mem := newClusterServers(t, n, func(i int, c *Config) {
		if i == 2 {
			c.CheckpointPath = ckptPath
		}
	})

	for tick := 0; tick <= crashTick; tick++ {
		if _, ok := srvs[0].Enqueue(synthBatch(tick, 60)); !ok {
			t.Fatalf("tick %d: enqueue rejected", tick)
		}
		tickAll(t, srvs)
		if tick == ckptTick {
			if _, err := srvs[2].Checkpoint(""); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Shard 2 crashes (we simply stop ticking it). Survivors continue:
	// their ticks block on the barrier until the replacement catches up,
	// so they run in the background.
	surv := make(chan error, 2)
	for s := 0; s < 2; s++ {
		go func(s int) {
			for tick := crashTick + 1; tick <= lastTick; tick++ {
				if s == 0 {
					if _, ok := srvs[0].Enqueue(synthBatch(tick, 60)); !ok {
						surv <- fmt.Errorf("tick %d: enqueue rejected", tick)
						return
					}
				}
				srvs[s].TickNow()
				if err := srvs[s].ClusterError(); err != nil {
					surv <- fmt.Errorf("shard %d: %w", s, err)
					return
				}
			}
			surv <- nil
		}(s)
	}

	// A survivor keeps answering reads from its published snapshot while
	// blocked on the barrier.
	if _, ok := srvs[0].Placement(graph.VertexID(1)); !ok {
		t.Fatal("survivor stopped serving reads")
	}

	// Restore the replacement from the stale checkpoint with a fresh
	// handle on the same exchange. It must re-run ticks ckptTick+1..last:
	// the first batch of those replay from the journal (skipping its own
	// empty queue), the rest complete the survivors' live barriers.
	snap, err := snapshot.Load(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := mem.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5, 21)
	cfg.TickEvery = 0
	cfg.Exchange = ex
	reborn, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for tick := ckptTick + 1; tick <= lastTick; tick++ {
		reborn.TickNow()
		if err := reborn.ClusterError(); err != nil {
			t.Fatalf("reborn tick %d: %v", tick, err)
		}
	}
	for s := 0; s < 2; s++ {
		if err := <-surv; err != nil {
			t.Fatal(err)
		}
	}

	if got := reborn.Stats().Cluster.Replayed; got == 0 {
		t.Fatal("restored shard replayed no rounds — the journal path never ran")
	}
	want := routingTable(srvs[0], 400)
	if !tablesEqual(routingTable(reborn, 400), want) {
		t.Fatal("restored shard's placements diverge from the survivors")
	}
	if reborn.clusterHash.Load() != srvs[0].clusterHash.Load() {
		t.Fatalf("restored shard hash %016x != survivor %016x",
			reborn.clusterHash.Load(), srvs[0].clusterHash.Load())
	}
}

// flakyExchange fails Round at round failAt without delivering
// anything; every other call goes to the wrapped handle.
type flakyExchange struct {
	cluster.Exchange
	failAt uint64
}

func (f *flakyExchange) Round(round uint64, payload []byte) ([][]byte, error) {
	if round == f.failAt {
		return nil, errors.New("injected transport failure")
	}
	return f.Exchange.Round(round, payload)
}

// TestClusterPoisonUntilRestart pins what one failed round does: the
// shard's cluster mode stays poisoned until the process restarts. Ingest
// is refused (JSON 503, binary shutdown NAK) and counts nothing, ticks
// become no-ops, POST /v1/tick answers 500 and the health gauge reads 0,
// reads keep serving the last published snapshot, and Drain stops at
// once but still writes its checkpoint.
func TestClusterPoisonUntilRestart(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "shard0.snap")
	flaky := &flakyExchange{}
	srvs, _ := newClusterServers(t, 2, func(i int, c *Config) {
		if i == 0 {
			flaky.Exchange = c.Exchange
			c.Exchange = flaky
			c.CheckpointPath = ckptPath
		}
	})
	s := srvs[0]
	for tick := 0; tick < 3; tick++ {
		if _, ok := s.Enqueue(synthBatch(tick, 60)); !ok {
			t.Fatalf("tick %d: enqueue rejected", tick)
		}
		tickAll(t, srvs)
	}
	var placed graph.VertexID
	for !func() bool { _, ok := s.Placement(placed); return ok }() {
		placed++
	}
	before, _ := s.Placement(placed)

	// Shard 0's next batch round fails; shard 1 never ticks again, so no
	// barrier is left waiting on it.
	flaky.failAt = s.clusterRounds.Load() + 1
	if res := s.TickNow(); res != (TickResult{}) {
		t.Fatalf("failed tick returned %+v", res)
	}
	if s.ClusterError() == nil {
		t.Fatal("a failed round did not poison cluster mode")
	}

	// A poisoned shard acknowledges nothing: no tick would apply it.
	pending, _ := s.PendingMutations()
	ingested := s.Stats().Ingested
	if _, ok := s.Enqueue(synthBatch(3, 60)); ok {
		t.Fatal("a poisoned shard accepted a batch")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutations",
		strings.NewReader(`{"mutations":[{"op":"add-edge","u":1,"v":2}]}`)))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "injected transport failure") {
		t.Fatalf("POST /v1/mutations on a poisoned shard: status %d body %s, want 503 with the cluster error", rec.Code, rec.Body.Bytes())
	}
	if f := dialBinary(t, startBinary(t, s)).send(t, synthBatch(4, 10)); f.Type != graph.FrameNak || f.Nak.Code != graph.NakShutdown {
		t.Fatalf("binary frame on a poisoned shard: reply %+v, want a shutdown NAK", f)
	}
	if got, _ := s.PendingMutations(); got != pending || s.Stats().Ingested != ingested {
		t.Fatalf("refused ingest was counted: %d pending (had %d), %d ingested (had %d)",
			got, pending, s.Stats().Ingested, ingested)
	}
	ticks := s.Stats().Ticks
	for i := 0; i < 3; i++ {
		if res := s.TickNow(); res != (TickResult{}) {
			t.Fatalf("poisoned tick %d returned %+v", i, res)
		}
	}
	if got := s.Stats().Ticks; got != ticks {
		t.Fatalf("poisoned ticks counted: %d ticks, had %d", got, ticks)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tick", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST /v1/tick on a poisoned shard: status %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/placement/%d", placed), nil))
	var got map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil ||
		got["partition"] != int64(before) {
		t.Fatalf("placement of %d after poisoning: status %d body %s, want partition %d",
			placed, rec.Code, rec.Body.Bytes(), before)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\napartd_cluster_healthy 0\n") {
		t.Fatal("apartd_cluster_healthy is not 0 on a poisoned shard")
	}

	n, err := s.Drain(10)
	if n != 0 || err != nil {
		t.Fatalf("Drain on a poisoned shard: %d ticks, error %v; want 0, nil", n, err)
	}
	snap, err := snapshot.Load(ckptPath)
	if err != nil {
		t.Fatalf("Drain wrote no checkpoint: %v", err)
	}
	if snap.Meta.Ticks != ticks || snap.Cluster == nil || snap.Cluster.ShardID != 0 || snap.Cluster.NumShards != 2 {
		t.Fatalf("drain checkpoint: ticks %d (want %d), cluster identity %+v", snap.Meta.Ticks, ticks, snap.Cluster)
	}
}

// TestClusterConfigValidation pins the misconfiguration guardrails.
func TestClusterConfigValidation(t *testing.T) {
	mem, err := cluster.NewMemCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close() //nolint:errcheck // teardown
	ex, _ := mem.Shard(0)

	bad := []func(c *Config){
		func(c *Config) { c.WorkloadWeight = 0.5 },                // workload objective forbidden
		func(c *Config) { c.MaxPending = graph.MaxWireBatch + 1 }, // batch cannot fit a round
		func(c *Config) { c.K = 1 },                               // k too small
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(5, 3)
		cfg.Exchange = ex
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid cluster config accepted", i)
		}
	}

	// A cluster checkpoint restores single-process (it carries no
	// generator state), but as a cluster shard only under its own
	// identity.
	snap := &snapshot.Snapshot{Cluster: &snapshot.ClusterIdentity{ShardID: 1, NumShards: 2}}
	if err := restoreClusterIdentity(&Config{}, snap); err != nil {
		t.Fatalf("clustered snapshot refused for single-process restore: %v", err)
	}
	cfg := Config{Exchange: ex}
	if err := restoreClusterIdentity(&cfg, snap); err == nil {
		t.Fatal("snapshot restored under the wrong shard identity")
	}
	if err := restoreClusterIdentity(&cfg, &snapshot.Snapshot{}); err == nil {
		t.Fatal("single-process snapshot accepted as a cluster shard seed")
	}
}

// TestClusterOwnerShard checks the owner_shard field and the
// X-Apartd-Owner-Shard header of GET /v1/placement on 2- and 3-shard
// clusters: every shard answers with the shard whose contiguous decide
// range covers the vertex's slot — ceil(slots/n) slots per shard — at
// the first slot, on both sides of a range boundary and at the last
// slot. A single-process reply carries neither.
func TestClusterOwnerShard(t *testing.T) {
	const vertices = 100
	for _, n := range []int{2, 3} {
		srvs, _ := newClusterServers(t, n, nil)
		if _, ok := srvs[0].Enqueue(ringBatch(vertices)); !ok {
			t.Fatal("enqueue rejected")
		}
		tickAll(t, srvs)
		slots := srvs[0].Routing().Table.Slots()
		if slots != vertices {
			t.Fatalf("n=%d: routing table has %d slots, want %d", n, slots, vertices)
		}
		per := (slots + n - 1) / n
		for i, s := range srvs {
			ts := httptest.NewServer(s)
			for _, v := range []int{0, per - 1, per, slots - 1} {
				var body map[string]int64
				resp := getJSON(t, ts, fmt.Sprintf("/v1/placement/%d", v), &body)
				want := v / per
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("n=%d shard %d vertex %d: status %d", n, i, v, resp.StatusCode)
				}
				got, ok := body["owner_shard"]
				if !ok || got != int64(want) || resp.Header.Get("X-Apartd-Owner-Shard") != fmt.Sprint(want) {
					t.Fatalf("n=%d shard %d vertex %d: owner_shard %d (present %v), header %q; want %d",
						n, i, v, got, ok, resp.Header.Get("X-Apartd-Owner-Shard"), want)
				}
			}
			ts.Close()
		}
	}

	single := testServer(t, nil)
	if _, ok := single.Enqueue(ringBatch(vertices)); !ok {
		t.Fatal("enqueue rejected")
	}
	single.TickNow()
	ts := httptest.NewServer(single)
	defer ts.Close()
	var body map[string]int64
	resp := getJSON(t, ts, "/v1/placement/0", &body)
	if _, ok := body["owner_shard"]; ok || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Apartd-Owner-Shard") != "" {
		t.Fatalf("single process: status %d, body %v, header %q; want 200 with no owner shard",
			resp.StatusCode, body, resp.Header.Get("X-Apartd-Owner-Shard"))
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/snapshot"
)

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig(4, 7)
	cfg.TickEvery = time.Hour // tests drive ticks explicitly
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ringBatch returns mutations building a ring over [0,n).
func ringBatch(n int) graph.Batch {
	b := make(graph.Batch, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
			U: graph.VertexID(i), V: graph.VertexID((i + 1) % n)})
	}
	return b
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp
}

// TestConfigRejectsNonFinite checks that the daemon's validator refuses
// NaN and both infinities in every float field before the heuristic is
// built (apartd -workload-weight inf reaches it).
func TestConfigRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config, float64){
		"S":              func(c *Config, v float64) { c.S = v },
		"CapacityFactor": func(c *Config, v float64) { c.CapacityFactor = v },
		"WorkloadWeight": func(c *Config, v float64) { c.WorkloadWeight = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig(4, 1)
			set(&cfg, v)
			if err := cfg.validate(); err == nil {
				t.Errorf("%s = %v: validate accepted the config", name, v)
			}
		}
	}
}

func TestIngestTickAndPlacement(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := IngestRequest{}
	for i := 0; i < 40; i++ {
		req.Mutations = append(req.Mutations, MutationJSON{Op: "add-edge", U: int64(i), V: int64((i + 1) % 40)})
	}
	resp, raw := postJSON(t, ts, "/v1/mutations", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var ack map[string]int
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if ack["accepted"] != 40 || ack["queued"] != 40 {
		t.Fatalf("ack %v, want accepted=40 queued=40", ack)
	}

	// Before the tick, the vertex is queued but not placed.
	if resp := getJSON(t, ts, "/v1/placement/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-tick placement status %d, want 404", resp.StatusCode)
	}

	res := s.TickNow()
	if res.BatchSize != 40 || res.Applied == 0 {
		t.Fatalf("tick = %+v, want 40 coalesced and some applied", res)
	}

	var placement map[string]int64
	if resp := getJSON(t, ts, "/v1/placement/0", &placement); resp.StatusCode != http.StatusOK {
		t.Fatalf("placement status %d", resp.StatusCode)
	}
	if placement["vertex"] != 0 || placement["partition"] < 0 || placement["partition"] >= 4 {
		t.Fatalf("placement %v out of range", placement)
	}

	var st Stats
	getJSON(t, ts, "/v1/stats", &st)
	if st.Vertices != 40 || st.Edges != 40 || st.K != 4 {
		t.Fatalf("stats %+v, want 40 vertices/edges over k=4", st)
	}
	if st.Ingested != 40 || st.Ticks != 1 {
		t.Fatalf("stats counters %+v", st)
	}
	if !partition.WithinCapacities(asnOf(s), capsOf(s)) {
		t.Fatal("capacity invariant violated after tick")
	}
}

func asnOf(s *Server) *partition.Assignment { return s.part.Assignment() }
func capsOf(s *Server) []int                { return s.part.Capacities() }

func TestIngestValidation(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"unknown op", `{"mutations":[{"op":"frobnicate","u":1}]}`},
		{"negative id", `{"mutations":[{"op":"add-vertex","u":-3}]}`},
		{"huge id", fmt.Sprintf(`{"mutations":[{"op":"add-vertex","u":%d}]}`, int64(graph.MaxReadVertexID)+1)},
		{"unknown field", `{"mutations":[],"extra":1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/mutations", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// A rejected batch must not enqueue anything.
	if n, _ := s.PendingMutations(); n != 0 {
		t.Fatalf("%d mutations leaked into the queue from rejected requests", n)
	}
	if resp := getJSON(t, ts, "/v1/placement/not-a-number", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric placement status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentIngestAndQueries is the race test the ISSUE's acceptance
// criterion names: mutation ingest, placement/stats/metrics queries and
// the tick loop all run concurrently (go test -race covers this
// package in CI).
func TestConcurrentIngestAndQueries(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.TickEvery = time.Millisecond
		c.CheckpointPath = filepath.Join(t.TempDir(), "c.snap")
	})
	s.Enqueue(ringBatch(200))
	s.TickNow()
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
				}
			}
		}()
	}
	// Ingest workers.
	for w := 0; w < 2; w++ {
		seed := int64(w)
		worker(func(i int) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			req := IngestRequest{}
			for j := 0; j < 5; j++ {
				req.Mutations = append(req.Mutations, MutationJSON{
					Op: "add-edge", U: int64(rng.Intn(220)), V: int64(rng.Intn(220)),
				})
			}
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(req) //nolint:errcheck
			resp, err := http.Post(ts.URL+"/v1/mutations", "application/json", &buf)
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		})
	}
	// Query workers.
	worker(func(i int) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/placement/%d", ts.URL, i%220))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	})
	worker(func(i int) {
		path := "/v1/stats"
		if i%2 == 0 {
			path = "/metrics"
		}
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	})
	// Checkpoint worker.
	worker(func(i int) {
		s.Checkpoint("") //nolint:errcheck
		time.Sleep(time.Millisecond)
	})

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()

	st := s.Stats()
	if st.Vertices == 0 || st.Ticks == 0 {
		t.Fatalf("no progress under concurrency: %+v", st)
	}
	if !partition.WithinCapacities(asnOf(s), capsOf(s)) {
		t.Fatal("capacity invariant violated under concurrency")
	}
}

// TestCheckpointRestartDeterminism drives two daemons through the same
// enqueue/tick schedule; one is checkpointed to disk and replaced by a
// Restore mid-stream. Placements must be byte-identical afterwards.
func TestCheckpointRestartDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "apartd.snap")
	schedule := func() []graph.Batch {
		rng := rand.New(rand.NewSource(13))
		var ticks []graph.Batch
		ticks = append(ticks, ringBatch(60))
		for i := 0; i < 6; i++ {
			var b graph.Batch
			for j := 0; j < 25; j++ {
				switch rng.Intn(4) {
				case 0, 1, 2:
					b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
						U: graph.VertexID(rng.Intn(80)), V: graph.VertexID(rng.Intn(80))})
				case 3:
					b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex,
						U: graph.VertexID(rng.Intn(80))})
				}
			}
			ticks = append(ticks, b)
		}
		return ticks
	}

	run := func(restart bool) *Server {
		s := testServer(t, func(c *Config) { c.CheckpointPath = path })
		for i, b := range schedule() {
			s.Enqueue(b)
			s.TickNow()
			if restart && i == 3 {
				if _, err := s.Checkpoint(path); err != nil {
					t.Fatal(err)
				}
				snap, err := snapshot.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := Restore(s.cfg, snap)
				if err != nil {
					t.Fatal(err)
				}
				s = s2
			}
		}
		return s
	}

	a, b := run(false), run(true)
	ta, tb := asnOf(a).Table(), asnOf(b).Table()
	if len(ta) != len(tb) {
		t.Fatalf("table sizes diverged: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("placement diverged at slot %d: %d vs %d", i, ta[i], tb[i])
		}
	}
	if a.Stats().Iteration != b.Stats().Iteration {
		t.Fatalf("iterations diverged: %d vs %d", a.Stats().Iteration, b.Stats().Iteration)
	}
	// Restored counters continue from the snapshot.
	if b.Stats().Ticks != a.Stats().Ticks {
		t.Fatalf("tick counters diverged: %d vs %d", b.Stats().Ticks, a.Stats().Ticks)
	}
}

func TestPeriodicCheckpointAndDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "periodic.snap")
	s := testServer(t, func(c *Config) {
		c.CheckpointPath = path
		c.CheckpointEvery = 2
	})
	s.Enqueue(ringBatch(30))
	r1 := s.TickNow()
	r2 := s.TickNow()
	if r1.Checkpoint || !r2.Checkpoint {
		t.Fatalf("periodic checkpoint: tick1=%v tick2=%v, want only tick2", r1.Checkpoint, r2.Checkpoint)
	}
	if _, err := snapshot.Load(path); err != nil {
		t.Fatalf("periodic checkpoint unreadable: %v", err)
	}

	// Drain: pending mutations are absorbed, a final snapshot lands.
	before := s.checkpoints.Load()
	s.Enqueue(ringBatch(35))
	if _, err := s.Drain(50); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n, _ := s.PendingMutations(); n != 0 {
		t.Fatalf("%d mutations still pending after drain", n)
	}
	if !s.Stats().Converged {
		t.Fatal("not converged after drain")
	}
	if s.checkpoints.Load() <= before {
		t.Fatal("drain wrote no final checkpoint")
	}
	snap, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph.NumVertices() != 35 {
		t.Fatalf("final snapshot has %d vertices, want 35", snap.Graph.NumVertices())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, nil)
	s.Enqueue(ringBatch(20))
	s.TickNow()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body := string(raw)
	for _, want := range []string{
		"apartd_mutations_ingested_total 20",
		"apartd_ticks_total 1",
		"apartd_vertices 20",
		"apartd_examined_total",
		"apartd_migrations_total",
		"apartd_dirty_vertices",
		"apartd_ingest_lag_seconds",
		"apartd_partition_size{partition=\"0\"}",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestCheckpointEndpointConfinesPaths pins the security contract of
// POST /v1/checkpoint: a client may pick an alternate snapshot *name*
// inside the configured checkpoint directory, never an arbitrary
// filesystem location, and without a configured path the endpoint is
// disabled entirely.
func TestCheckpointEndpointConfinesPaths(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) {
		c.CheckpointPath = filepath.Join(dir, "state.snap")
	})
	s.Enqueue(ringBatch(10))
	s.TickNow()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// No body: configured path.
	if resp, raw := postJSON(t, ts, "/v1/checkpoint", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("default checkpoint status %d: %s", resp.StatusCode, raw)
	}
	// Bare file name: confined to the checkpoint directory.
	resp, raw := postJSON(t, ts, "/v1/checkpoint", map[string]string{"path": "alt.snap"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare-name checkpoint status %d: %s", resp.StatusCode, raw)
	}
	if _, err := snapshot.Load(filepath.Join(dir, "alt.snap")); err != nil {
		t.Fatalf("alt snapshot unreadable: %v", err)
	}
	// Escapes must be rejected and must not write anything.
	for _, escape := range []string{"/etc/apartd-pwned", "../outside.snap", "sub/dir.snap"} {
		resp, raw := postJSON(t, ts, "/v1/checkpoint", map[string]string{"path": escape})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("escape %q: status %d, want 400: %s", escape, resp.StatusCode, raw)
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "outside.snap")); err == nil {
		t.Fatal("traversal escape wrote a file outside the checkpoint directory")
	}

	// Without a configured path the endpoint refuses client paths too.
	s2 := testServer(t, nil)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if resp, _ := postJSON(t, ts2, "/v1/checkpoint", map[string]string{"path": "x.snap"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unconfigured daemon accepted a checkpoint path (status %d)", resp.StatusCode)
	}
}

func TestRestoreRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{K: 0, MaxStepsPerTick: 1}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := New(Config{K: 2, MaxStepsPerTick: 0}); err == nil {
		t.Fatal("accepted zero step budget")
	}
	if _, err := New(Config{K: 2, MaxStepsPerTick: 1, CheckpointEvery: 3}); err == nil {
		t.Fatal("accepted periodic checkpoints without a path")
	}
}

// TestCheckpointFoldsPendingHeat pins the checkpoint path's heat
// durability: reads sampled BETWEEN ticks (still sitting in the heat
// table's rings, not yet folded into the partitioner) must survive into
// the snapshot. The old path captured the partitioner as-is, so a
// checkpoint taken mid-interval silently discarded every read since the
// last tick — a restore then resumed with a colder heat view than the
// daemon it replaced.
func TestCheckpointFoldsPendingHeat(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, func(c *Config) {
		c.HeatRecord = true
		c.HeatSample = 1 // sample every read: the test traffic is tiny
		c.CheckpointPath = filepath.Join(dir, "heat.snap")
	})
	if _, ok := s.Enqueue(ringBatch(16)); !ok {
		t.Fatal("enqueue refused")
	}
	s.TickNow()

	// Reads land in the sampling rings; no tick runs before the
	// checkpoint, so only the checkpoint-time fold can preserve them.
	hot := graph.VertexID(3)
	for i := 0; i < 32; i++ {
		s.Placement(hot)
	}
	snap, err := s.Checkpoint("")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Core.Heat) <= int(hot) {
		t.Fatalf("snapshot heat has %d slots, want > %d", len(snap.Core.Heat), hot)
	}
	if got := snap.Core.Heat[hot]; got <= 0 {
		t.Fatalf("snapshot heat[%d] = %g, want > 0: between-tick reads were dropped", hot, got)
	}
	if got := snap.Core.Heat[9]; got != 0 {
		t.Fatalf("snapshot heat[9] = %g, want 0 (never read)", got)
	}

	// A restored daemon resumes with the folded heat, not a cold table.
	s2, err := Restore(s.cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if snap2, err := s2.Checkpoint(""); err != nil {
		t.Fatal(err)
	} else if got := snap2.Core.Heat[hot]; got <= 0 {
		t.Fatalf("restored heat[%d] = %g, want > 0", hot, got)
	}
}

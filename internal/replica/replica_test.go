package replica

// End-to-end tests of the replication protocol against a real primary
// (internal/server) over real HTTP. The testAfterPage hook makes the
// timing-dependent failure paths deterministic: epoch seams (the primary
// advances mid-bootstrap), ring evictions (the primary outruns the watch
// ring before the tail starts), and restarts (the upstream is swapped
// for a fresh incarnation behind a proxy).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/server"
)

// newPrimary builds a quiescent test primary (ticks driven manually).
func newPrimary(t *testing.T, mutate func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.DefaultConfig(4, 7)
	cfg.TickEvery = time.Hour // tests drive ticks explicitly
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testReplica builds a replica with test-friendly timings, started
// against the given upstream URL, and registers its shutdown.
func testReplica(t *testing.T, upstream string, mutate func(*Config)) *Replica {
	t.Helper()
	cfg := DefaultConfig(upstream)
	cfg.PageSize = 16 // force multi-page bootstraps on small tables
	cfg.LagPollEvery = 10 * time.Millisecond
	cfg.ReconnectMin = 2 * time.Millisecond
	cfg.ReconnectMax = 20 * time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
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

// advance applies one batch and ticks the primary, asserting the batch
// was accepted.
func advance(t *testing.T, s *server.Server, b graph.Batch) {
	t.Helper()
	if _, ok := s.Enqueue(b); !ok {
		t.Fatal("primary rejected batch")
	}
	s.TickNow()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, msg)
}

// waitConverged waits until the replica's served epoch matches the (now
// quiescent) primary's, then verifies the tables are identical slot by
// slot.
func waitConverged(t *testing.T, r *Replica, s *server.Server) {
	t.Helper()
	// Re-read the primary's epoch every poll: test hooks advance the
	// primary from inside the replica's own bootstrap, after this call
	// started. The primary is quiescent once the hook has fired, so the
	// final equality check below races nothing.
	waitFor(t, 10*time.Second, func() bool {
		_, epoch, ok := r.Snapshot()
		return ok && epoch == s.Routing().Epoch
	}, fmt.Sprintf("replica to reach the primary's epoch (replica at %v)", r.State()))

	want := s.Routing()
	frozen, epoch, ok := r.Snapshot()
	if !ok || epoch != want.Epoch {
		t.Fatalf("snapshot: epoch %d ok=%v, want epoch %d", epoch, ok, want.Epoch)
	}
	if frozen.K() != want.Table.K() {
		t.Fatalf("replica k=%d, primary k=%d", frozen.K(), want.Table.K())
	}
	if frozen.Assigned() != want.Table.Assigned() {
		t.Fatalf("replica has %d assigned, primary %d", frozen.Assigned(), want.Table.Assigned())
	}
	slots := want.Table.Slots()
	if frozen.Slots() > slots {
		slots = frozen.Slots()
	}
	for v := 0; v < slots; v++ {
		id := graph.VertexID(v)
		if got, exp := frozen.Of(id), want.Table.Of(id); got != exp {
			t.Fatalf("vertex %d: replica says %d, primary says %d (epoch %d)", v, got, exp, epoch)
		}
	}
}

// --- the happy path --------------------------------------------------------

func TestReplicaConvergesUnderChurn(t *testing.T) {
	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open

	// Table exists before the replica arrives: the bootstrap does real
	// paging (PageSize 16 against 130 vertices → ≥9 pages).
	advance(t, s, ringBatch(130))

	r := testReplica(t, ts.URL, nil)
	r.Start()
	waitConverged(t, r, s)
	if got := r.Stats().Bootstraps; got != 1 {
		t.Fatalf("bootstraps %d, want 1", got)
	}

	// Keep churning while the replica tails live: adds, removals, and
	// re-adds across 20 epochs.
	for round := 0; round < 20; round++ {
		b := graph.Batch{
			{Kind: graph.MutAddEdge, U: graph.VertexID(200 + round), V: graph.VertexID(201 + round)},
			{Kind: graph.MutRemoveVertex, U: graph.VertexID(round * 3)},
		}
		advance(t, s, b)
	}
	waitConverged(t, r, s)

	st := r.Stats()
	if st.Resyncs != 0 {
		t.Fatalf("resyncs %d during clean tailing, want 0", st.Resyncs)
	}
	if st.EventsApplied == 0 {
		t.Fatal("no watch events applied despite churn")
	}
	if st.State != "serving" {
		t.Fatalf("state %q, want serving", st.State)
	}
}

// --- bootstrap seam healing ------------------------------------------------

func TestReplicaHealsBootstrapSeam(t *testing.T) {
	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open
	advance(t, s, ringBatch(100))

	// Advance the primary one epoch after the first bootstrap page: later
	// pages come from a newer epoch, so the assembled table is a mixture
	// the watch replay must heal — without a resync.
	r := testReplica(t, ts.URL, nil)
	var once sync.Once
	r.testAfterPage = func(cursor int64) {
		once.Do(func() {
			advance(t, s, graph.Batch{
				{Kind: graph.MutAddEdge, U: 300, V: 301},
				{Kind: graph.MutRemoveVertex, U: 5},
			})
		})
	}
	r.Start()
	waitConverged(t, r, s)

	st := r.Stats()
	if st.Resyncs != 0 {
		t.Fatalf("seam forced %d resyncs, want 0 (the watch replay should heal it)", st.Resyncs)
	}
	if st.Bootstraps != 1 {
		t.Fatalf("bootstraps %d, want 1", st.Bootstraps)
	}
}

// --- ring-eviction resync --------------------------------------------------

func TestReplicaResyncsAfterRingEviction(t *testing.T) {
	// A tiny watch ring: the primary advancing 8 epochs mid-bootstrap
	// guarantees the replica's resume point is evicted before its tail
	// starts, so the stream opens with {"resync":true}.
	s := newPrimary(t, func(c *server.Config) { c.WatchRing = 2 })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open
	advance(t, s, ringBatch(100))

	r := testReplica(t, ts.URL, nil)
	var once sync.Once
	r.testAfterPage = func(cursor int64) {
		once.Do(func() {
			for i := 0; i < 8; i++ {
				advance(t, s, graph.Batch{
					{Kind: graph.MutAddEdge, U: graph.VertexID(400 + 2*i), V: graph.VertexID(401 + 2*i)},
				})
			}
		})
	}
	r.Start()
	waitConverged(t, r, s)

	st := r.Stats()
	if st.Resyncs < 1 {
		t.Fatalf("resyncs %d, want ≥1 (ring eviction must force a re-bootstrap)", st.Resyncs)
	}
	if st.Bootstraps != st.Resyncs+1 {
		t.Fatalf("bootstraps %d with %d resyncs, want resyncs+1", st.Bootstraps, st.Resyncs)
	}
}

// TestReplicaResyncsOnEpochGap feeds the replica a watch stream that
// skips an epoch without a resync event — the symptom of a primary that
// stamps a resync with the wrong epoch. The replica must refuse the
// diff past the gap (it would otherwise serve a table no primary epoch
// ever held) and re-bootstrap.
func TestReplicaResyncsOnEpochGap(t *testing.T) {
	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	advance(t, s, ringBatch(30))

	var gapped atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, "/v1/watch") && gapped.CompareAndSwap(false, true) {
			// One diff two epochs past the resume point, then hold the
			// stream open.
			from := s.Routing().Epoch + 1
			w.Header().Set("X-Apartd-Instance", s.Instance())
			w.WriteHeader(200)
			fmt.Fprintf(w, "{\"epoch\":%d,\"changes\":[{\"vertex\":0,\"from\":0,\"to\":3}]}\n", from+1)
			w.(http.Flusher).Flush()
			<-req.Context().Done()
			return
		}
		s.ServeHTTP(w, req)
	}))
	t.Cleanup(proxy.Close)

	r := testReplica(t, proxy.URL, nil)
	r.Start()
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Resyncs >= 1 }, "a resync on the epoch gap")
	waitConverged(t, r, s)
	if st := r.Stats(); st.Resyncs != 1 || st.Bootstraps != 2 {
		t.Fatalf("resyncs %d, bootstraps %d; want 1 and 2", st.Resyncs, st.Bootstraps)
	}
}

// --- upstream restart ------------------------------------------------------

func TestReplicaResyncsAfterPrimaryRestart(t *testing.T) {
	primary1 := newPrimary(t, nil)
	var target atomic.Pointer[server.Server]
	target.Store(primary1)
	// The proxy stands in for the primary's stable address across a
	// restart: same URL, new process behind it.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		target.Load().ServeHTTP(w, req)
	}))
	t.Cleanup(ts.Close)
	advance(t, primary1, ringBatch(120))
	for i := 0; i < 5; i++ { // drive primary1's epoch well past a fresh process's
		advance(t, primary1, graph.Batch{{Kind: graph.MutAddEdge, U: graph.VertexID(500 + i), V: 599}})
	}

	r := testReplica(t, ts.URL, nil)
	r.Start()
	waitConverged(t, r, primary1)

	// "Restart" the daemon: a fresh incarnation (new instance token,
	// epochs back at 1) with a different, smaller graph — then cut every
	// live connection, as a real process death would.
	primary2 := newPrimary(t, nil)
	advance(t, primary2, ringBatch(60))
	target.Store(primary2)
	ts.CloseClientConnections()

	waitConverged(t, r, primary2)
	if st := r.Stats(); st.Resyncs < 1 {
		t.Fatalf("resyncs %d, want ≥1 (instance change must force a re-bootstrap)", st.Resyncs)
	}
	// The lag poller (10ms period) catches up to the new incarnation.
	waitFor(t, 5*time.Second, func() bool {
		return r.Stats().UpstreamInstance == primary2.Instance()
	}, "lag poller to observe primary2's instance token")

	// And the replica must now track the new incarnation's epochs.
	advance(t, primary2, graph.Batch{{Kind: graph.MutAddEdge, U: 700, V: 701}})
	waitConverged(t, r, primary2)
}

// A restarted primary whose epoch happens to exactly match the
// replica's is the nastiest case: the replica's watch resume opens a
// clean 200 stream that may never send a byte (quiet feed), so the
// instance-token check must abandon the stream immediately rather than
// waiting for data — a "drain the body for keep-alive" read on that
// path once hung the run loop forever.
func TestReplicaResyncsOnQuietStreamAfterEpochAlignedRestart(t *testing.T) {
	primary1 := newPrimary(t, nil)
	var target atomic.Pointer[server.Server]
	target.Store(primary1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		target.Load().ServeHTTP(w, req)
	}))
	t.Cleanup(ts.Close)
	advance(t, primary1, ringBatch(80))

	r := testReplica(t, ts.URL, nil)
	r.Start()
	waitConverged(t, r, primary1)

	// Build primary2 up to exactly primary1's epoch, so the replica's
	// watch?from=epoch+1 is a valid, silent resume point on the new
	// incarnation — only the instance token betrays the restart.
	primary2 := newPrimary(t, nil)
	wantEpoch := primary1.Routing().Epoch
	for i := 0; primary2.Routing().Epoch < wantEpoch; i++ {
		advance(t, primary2, graph.Batch{
			{Kind: graph.MutAddEdge, U: graph.VertexID(2 * i), V: graph.VertexID(2*i + 1)},
		})
	}
	if primary2.Routing().Epoch != wantEpoch {
		t.Fatalf("could not align epochs: primary2 at %d, want %d", primary2.Routing().Epoch, wantEpoch)
	}
	target.Store(primary2)
	ts.CloseClientConnections()

	// Epochs are aligned, so epoch equality cannot prove convergence to
	// the NEW incarnation — wait for the resync itself, then compare.
	waitFor(t, 10*time.Second, func() bool {
		return r.Stats().Resyncs >= 1
	}, "instance-token check to force a resync despite the quiet stream")
	waitConverged(t, r, primary2)
}

// --- HTTP read surface -----------------------------------------------------

func TestReplicaHTTPBeforeAndAfterServing(t *testing.T) {
	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open
	advance(t, s, ringBatch(40))

	r := testReplica(t, ts.URL, nil)
	rts := httptest.NewServer(r)
	defer rts.Close()

	// Before Start: no table, so reads 503, health 503, stats/metrics 200.
	for path, want := range map[string]int{
		"/v1/placement/3": 503,
		"/healthz":        503,
		"/v1/stats":       200,
		"/metrics":        200,
	} {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s before start: status %d (body %s), want %d", path, resp.StatusCode, body, want)
		}
	}

	r.Start()
	waitConverged(t, r, s)
	waitFor(t, 5*time.Second, func() bool {
		ok, _ := r.Healthy()
		return ok && r.Stats().UpstreamInstance != ""
	}, "replica health and one successful upstream poll")

	// Single lookup agrees with the primary.
	resp, err := http.Get(rts.URL + "/v1/placement/7")
	if err != nil {
		t.Fatal(err)
	}
	var single map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("placement status %d", resp.StatusCode)
	}
	if p, ok := s.Placement(7); !ok || int64(p) != single["partition"] {
		t.Fatalf("replica places 7 in %d, primary in %d", single["partition"], p)
	}

	// Unknown vertex is a 404, exactly like the primary.
	if resp, err := http.Get(rts.URL + "/v1/placement/99999"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("unplaced vertex: status %d, want 404", resp.StatusCode)
		}
	}

	// IDs outside [0, graph.MaxReadVertexID] are a 400 on the replica
	// exactly as on the primary; the maximum itself is only unplaced.
	for path, want := range map[string]int{
		"/v1/placement/-1":       400,
		"/v1/placement/16777217": 400,
		"/v1/placement/16777216": 404,
	} {
		for _, base := range []string{ts.URL, rts.URL} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s%s: status %d, want %d", base, path, resp.StatusCode, want)
			}
		}
	}

	// Batch lookups work; the bootstrap-page form and out-of-range IDs
	// are refused.
	for body, want := range map[string]int{
		`{"vertices":[0,1,2,99999]}`: 200,
		`{"vertices":[0,16777216]}`:  200,
		`{"vertices":[0,-1]}`:        400,
		`{"vertices":[16777217,1]}`:  400,
		`{"cursor":0,"limit":10}`:    400,
		`{"vertices":[1],"extra":1}`: 400,
	} {
		resp, err := http.Post(rts.URL+"/v1/placements", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("batch %s: status %d (body %s), want %d", body, resp.StatusCode, raw, want)
		}
	}

	// Health is now 200 and stats reflect the serving state.
	if resp, err := http.Get(rts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz status %d, want 200", resp.StatusCode)
		}
	}
	var st Stats
	if resp, err := http.Get(rts.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st.State != "serving" || !st.Healthy || st.Epoch == 0 || st.UpstreamInstance == "" {
		t.Fatalf("stats %+v: want serving, healthy, nonzero epoch, known upstream instance", st)
	}
	if st.ReadsServed == 0 || st.ReadsNotReady == 0 {
		t.Fatalf("stats counted %d reads / %d not-ready, want both > 0", st.ReadsServed, st.ReadsNotReady)
	}

	// Metrics expose the replica vitals in Prometheus text format.
	var metrics string
	if resp, err := http.Get(rts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(raw)
	}
	for _, want := range []string{
		"apartr_state 2", "apartr_healthy 1", "apartr_epoch ",
		"apartr_resyncs_total 0", "apartr_bootstraps_total 1",
		"apartr_lag_epochs 0", "apartr_not_ready_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// --- lag gate --------------------------------------------------------------

func TestReplicaLagGateFlipsHealth(t *testing.T) {
	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open
	advance(t, s, ringBatch(30))

	// MaxLagEpochs 1 and a watch stream that can never deliver: the
	// replica bootstraps, then the primary advances while the replica's
	// tail is pinned down by a blackholed watch endpoint.
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, "/v1/watch") {
			// Accept the stream, send nothing, hold it open.
			w.Header().Set("X-Apartd-Instance", s.Instance())
			w.WriteHeader(200)
			w.(http.Flusher).Flush()
			<-req.Context().Done()
			return
		}
		s.ServeHTTP(w, req)
	}))
	t.Cleanup(blackhole.Close)

	r := testReplica(t, blackhole.URL, func(c *Config) { c.MaxLagEpochs = 1 })
	r.Start()
	waitFor(t, 5*time.Second, func() bool {
		ok, _ := r.Healthy()
		return ok
	}, "replica to become healthy after bootstrap")

	// Two epochs ahead → lag 2 > gate 1 → unhealthy, still Serving.
	advance(t, s, graph.Batch{{Kind: graph.MutAddEdge, U: 100, V: 101}})
	advance(t, s, graph.Batch{{Kind: graph.MutAddEdge, U: 102, V: 103}})
	waitFor(t, 5*time.Second, func() bool {
		ok, reason := r.Healthy()
		return !ok && strings.Contains(reason, "lagging")
	}, "lag gate to flip health")
	if r.State() != StateServing {
		t.Fatalf("state %v, want Serving (lag gates health, not serving)", r.State())
	}
}

// --- unit-level pieces -----------------------------------------------------

func TestBackoffBounds(t *testing.T) {
	r := testReplica(t, "http://unused.invalid", func(c *Config) {
		c.ReconnectMin = 100 * time.Millisecond
		c.ReconnectMax = 5 * time.Second
	})
	for attempt := 0; attempt < 40; attempt++ {
		for trial := 0; trial < 50; trial++ {
			d := r.backoff(attempt)
			if d < 50*time.Millisecond {
				t.Fatalf("attempt %d: backoff %v below half the floor", attempt, d)
			}
			if d > 7500*time.Millisecond {
				t.Fatalf("attempt %d: backoff %v above 1.5× the cap", attempt, d)
			}
		}
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateBootstrapping: "bootstrapping",
		StateSyncing:       "syncing",
		StateServing:       "serving",
		State(9):           "state(9)",
	} {
		if got := st.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Upstream: "http://x", PageSize: MaxPageSize + 1}); err == nil {
		t.Fatal("oversized page accepted")
	}
	r, err := New(Config{Upstream: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	if cfg.PageSize != MaxPageSize || cfg.MaxLagEpochs != DefaultMaxLagEpochs ||
		cfg.LagPollEvery != DefaultLagPoll || cfg.ReconnectMin != DefaultReconnectMin ||
		cfg.ReconnectMax != DefaultReconnectMax {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	r.Stop() // Stop before Start must be a safe no-op
}

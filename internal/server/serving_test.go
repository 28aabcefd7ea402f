package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// --- batch lookups ---------------------------------------------------------

func TestBatchPlacements(t *testing.T) {
	s := testServer(t, nil)
	s.Enqueue(ringBatch(40))
	s.TickNow()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, raw := postJSON(t, ts, "/v1/placements", BatchRequest{
		Vertices: []int64{0, 7, 39, 1000}, // 1000 was never streamed
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Epoch == 0 {
		t.Fatal("batch response not epoch-stamped")
	}
	if len(br.Placements) != 4 {
		t.Fatalf("got %d placements, want 4", len(br.Placements))
	}
	// Batch answers agree with the single-lookup endpoint.
	for _, pl := range br.Placements[:3] {
		var single map[string]int64
		if resp := getJSON(t, ts, fmt.Sprintf("/v1/placement/%d", pl.Vertex), &single); resp.StatusCode != http.StatusOK {
			t.Fatalf("single lookup of %d failed", pl.Vertex)
		}
		if single["partition"] != pl.Partition {
			t.Fatalf("vertex %d: batch says %d, single says %d", pl.Vertex, pl.Partition, single["partition"])
		}
		if pl.Partition < 0 || pl.Partition >= 4 {
			t.Fatalf("vertex %d in partition %d, want [0,4)", pl.Vertex, pl.Partition)
		}
	}
	// Unknown vertices come back as -1 inline, not as a request failure.
	if br.Placements[3].Partition != -1 {
		t.Fatalf("unknown vertex placed in %d, want -1", br.Placements[3].Partition)
	}
}

func TestBatchPlacementsValidation(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed":     `{`,
		"unknown field": `{"vertices":[1],"extra":true}`,
		"negative id":   `{"vertices":[-4]}`,
		"huge id":       fmt.Sprintf(`{"vertices":[%d]}`, int64(graph.MaxReadVertexID)+1),
	} {
		resp, err := http.Post(ts.URL+"/v1/placements", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Oversized vertex lists are rejected before any lookup work.
	ids := make([]int64, maxBatchVertices+1)
	resp, raw := postJSON(t, ts, "/v1/placements", BatchRequest{Vertices: ids})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %.120s", resp.StatusCode, raw)
	}
}

// --- epoch consistency -----------------------------------------------------

// TestEpochDiffsReconstructEveryTable is the serving plane's core
// correctness property: starting from the empty epoch-1 table and
// applying the watch feed's diffs in order reconstructs, at every epoch,
// exactly the table that batch lookups stamped with that epoch. Verified
// over a churning stream (adds, removals, migrations) in both
// scheduling modes.
func TestEpochDiffsReconstructEveryTable(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			s := testServer(t, func(c *Config) {
				c.Incremental = incremental
				c.WatchRing = 1 << 14 // retain everything; eviction is tested elsewhere
			})
			ts := httptest.NewServer(s)
			defer ts.Close()

			// Model: vertex → partition, evolved by applying diffs.
			model := map[int64]int64{}
			modelEpoch := uint64(1)
			catchUp := func() {
				diffs, _, resync := s.hub.since(modelEpoch + 1)
				if resync {
					t.Fatal("ring evicted despite oversized WatchRing")
				}
				for _, d := range diffs {
					if d.Epoch != modelEpoch+1 {
						t.Fatalf("epoch gap: model at %d, next diff %d", modelEpoch, d.Epoch)
					}
					for _, ch := range d.Changes {
						if ch.From != -1 && model[ch.Vertex] != ch.From {
							t.Fatalf("epoch %d: vertex %d diff says from=%d, model has %d",
								d.Epoch, ch.Vertex, ch.From, model[ch.Vertex])
						}
						if ch.To == -1 {
							delete(model, ch.Vertex)
						} else {
							model[ch.Vertex] = ch.To
						}
					}
					modelEpoch = d.Epoch
				}
			}

			rng := rand.New(rand.NewSource(99))
			s.Enqueue(ringBatch(120))
			for tick := 0; tick < 25; tick++ {
				s.TickNow()
				catchUp()

				// Batch-read everything; response must match the model
				// at its stamped epoch (ticks are synchronous here, so
				// the stamped epoch is the model's epoch).
				ids := make([]int64, 130)
				for i := range ids {
					ids[i] = int64(i)
				}
				var br BatchResponse
				resp, raw := postJSON(t, ts, "/v1/placements", BatchRequest{Vertices: ids})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch: %d %s", resp.StatusCode, raw)
				}
				if err := json.Unmarshal(raw, &br); err != nil {
					t.Fatal(err)
				}
				if br.Epoch != modelEpoch {
					t.Fatalf("tick %d: batch stamped epoch %d, model at %d", tick, br.Epoch, modelEpoch)
				}
				for _, pl := range br.Placements {
					want, ok := model[pl.Vertex]
					if !ok {
						want = -1
					}
					if pl.Partition != want {
						t.Fatalf("tick %d epoch %d: vertex %d served %d, diff-reconstructed table has %d",
							tick, br.Epoch, pl.Vertex, pl.Partition, want)
					}
				}

				// Churn for the next tick: adds and removals.
				var b graph.Batch
				for j := 0; j < 15; j++ {
					if rng.Intn(4) == 0 {
						b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex,
							U: graph.VertexID(rng.Intn(130))})
					} else {
						b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
							U: graph.VertexID(rng.Intn(130)), V: graph.VertexID(rng.Intn(130))})
					}
				}
				s.Enqueue(b)
			}
			if modelEpoch < 10 {
				t.Fatalf("only %d epochs published; churn exercised nothing", modelEpoch)
			}
		})
	}
}

// --- watch feed over HTTP --------------------------------------------------

// watchLines connects to /v1/watch and returns a line scanner plus a
// closer.
func watchLines(t *testing.T, ts *httptest.Server, query string) (*bufio.Scanner, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/watch"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("watch content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return sc, func() { resp.Body.Close() }
}

func TestWatchStreamsDiffs(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Publish epoch 2 (the batch placements), then connect from=2.
	s.Enqueue(ringBatch(60))
	s.TickNow()

	sc, closeStream := watchLines(t, ts, "?from=2")
	defer closeStream()

	lines := make(chan watchEvent)
	go func() {
		defer close(lines)
		for sc.Scan() {
			var ev watchEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Errorf("bad watch line %q: %v", sc.Text(), err)
				return
			}
			lines <- ev
		}
	}()

	read := func() watchEvent {
		t.Helper()
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatal("watch stream ended early")
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for watch event")
		}
		panic("unreachable")
	}

	first := read()
	if first.Resync || first.Epoch != 2 || len(first.Changes) == 0 {
		t.Fatalf("first event %+v, want epoch-2 diff with changes", first)
	}
	for _, ch := range first.Changes {
		if ch.From != -1 {
			t.Fatalf("initial placement of %d has from=%d, want -1 (added)", ch.Vertex, ch.From)
		}
	}

	// A later tick's migrations arrive live on the open stream.
	prevEpoch := first.Epoch
	s.Enqueue(ringBatch(90)) // extend the ring: wakes adaptation
	s.TickNow()
	for want := prevEpoch + 1; want <= s.Routing().Epoch; want++ {
		ev := read()
		if ev.Resync || ev.Epoch != want {
			t.Fatalf("live event %+v, want consecutive epoch %d", ev, want)
		}
	}
}

func TestWatchRejectsBadFrom(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/watch?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestWatchResyncAfterEviction: a consumer asking for epochs the
// bounded ring no longer retains gets an explicit resync event (then
// live diffs), never silently-missing epochs.
func TestWatchResyncAfterEviction(t *testing.T) {
	s := testServer(t, func(c *Config) { c.WatchRing = 4 })
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Publish well past the ring bound.
	s.Enqueue(ringBatch(80))
	s.TickNow()
	for i := 0; i < 12; i++ {
		s.Enqueue(graph.Batch{
			{Kind: graph.MutAddEdge, U: graph.VertexID(200 + i), V: graph.VertexID(201 + i)},
		})
		s.TickNow()
	}
	cur := s.Routing().Epoch
	if n, _ := s.hub.retained(); n > 4 {
		t.Fatalf("ring retains %d diffs, bound is 4", n)
	}

	sc, closeStream := watchLines(t, ts, "?from=2") // long evicted
	defer closeStream()
	if !sc.Scan() {
		t.Fatal("no first event")
	}
	var ev watchEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if !ev.Resync || ev.Epoch != cur {
		t.Fatalf("first event %+v, want resync at current epoch %d", ev, cur)
	}
	// After the resync instruction the stream continues with live diffs.
	s.Enqueue(graph.Batch{{Kind: graph.MutAddEdge, U: 500, V: 501}})
	s.TickNow()
	if !sc.Scan() {
		t.Fatal("no post-resync event")
	}
	var live watchEvent
	if err := json.Unmarshal(sc.Bytes(), &live); err != nil {
		t.Fatal(err)
	}
	if live.Resync || live.Epoch <= cur {
		t.Fatalf("post-resync event %+v, want a live diff after epoch %d", live, cur)
	}
}

// TestWatchRejectsFutureFrom pins the daemon-restart scenario: epochs
// reset to 1 on restart, so a consumer reconnecting with its old (now
// far-future) from must get an explicit 400 telling it to re-bootstrap —
// not a silent hang until the new process's epoch counter catches up,
// and not a resync event that would mask the restart. (Before this was
// specified, the behavior was an immediate resync — ambiguous with
// ordinary ring eviction, so a replica could not distinguish "I fell
// behind" from "my upstream is a different incarnation".)
func TestWatchRejectsFutureFrom(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Enqueue(ringBatch(40))
	s.TickNow() // this process is at epoch 2-ish; the consumer asks for 90000

	resp, err := http.Get(ts.URL + "/v1/watch?from=90000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("400 body %q is not the documented {\"error\": ...} shape", body)
	}
	for _, want := range []string{"from=90000", "next epoch", "re-bootstrap"} {
		if !strings.Contains(e.Error, want) {
			t.Fatalf("error %q does not mention %q", e.Error, want)
		}
	}

	// The boundary: from = next epoch is the ordinary caught-up case and
	// must still be accepted (the stream waits rather than erroring).
	sc, closeStream := watchLines(t, ts, fmt.Sprintf("?from=%d", s.Routing().Epoch+1))
	defer closeStream()
	s.Enqueue(graph.Batch{{Kind: graph.MutAddEdge, U: 700, V: 701}})
	s.TickNow()
	if !sc.Scan() {
		t.Fatal("caught-up consumer got no event")
	}
	var ev watchEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Resync || len(ev.Changes) == 0 {
		t.Fatalf("caught-up consumer got %+v, want a live diff", ev)
	}
}

// TestSlowWatcherBoundedMemory is the OOM regression test: a connected
// consumer that stops reading must not make the daemon queue diffs for
// it. Retention is the ring and nothing but the ring, whatever the
// consumer does; once the stalled consumer resumes it is served a
// resync, not a replay.
func TestSlowWatcherBoundedMemory(t *testing.T) {
	const ring = 8
	s := testServer(t, func(c *Config) { c.WatchRing = ring })
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A consumer that connects and then never reads: its handler will
	// block on TCP backpressure once kernel buffers fill.
	req, err := http.NewRequest("GET", ts.URL+"/v1/watch?from=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Publish far more epochs than the ring holds, with fat diffs so any
	// per-subscriber queueing would be visible as memory growth.
	for i := 0; i < 200; i++ {
		var b graph.Batch
		base := graph.VertexID(i * 40)
		for j := graph.VertexID(0); j < 40; j++ {
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: base + j, V: base + (j+1)%40})
		}
		s.Enqueue(b)
		s.TickNow()
	}

	if n, _ := s.hub.retained(); n > ring {
		t.Fatalf("hub retains %d diffs for a stalled consumer, bound is %d", n, ring)
	}
	if _, evicted := s.hub.retained(); evicted == 0 {
		t.Fatal("nothing evicted; the test published too little")
	}
	if got := s.watchers.Load(); got != 1 {
		t.Fatalf("subscriber gauge %d, want 1", got)
	}

	// The stalled consumer resumes. Depending on how much the kernel
	// socket buffered before the handler blocked, it either kept every
	// epoch (consecutive diffs) or fell behind the ring — in which case
	// it MUST see an explicit resync event before the stream jumps
	// forward. Either way: no silent gaps, ever.
	target := s.Routing().Epoch
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	done := make(chan error, 1)
	go func() {
		last := uint64(1) // consumer's table starts at the bootstrap epoch
		for sc.Scan() {
			var ev watchEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				done <- err
				return
			}
			if ev.Resync {
				// The documented recovery: refetch full state at ≥
				// ev.Epoch, making the consumer's table current as of it.
				last = ev.Epoch
			} else if ev.Epoch != last+1 {
				done <- fmt.Errorf("silent gap: epoch %d after %d with no resync", ev.Epoch, last)
				return
			} else {
				last = ev.Epoch
			}
			if last >= target {
				done <- nil
				return
			}
		}
		done <- fmt.Errorf("stream ended before reaching epoch %d", target)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("resumed consumer never caught up")
	}
}

// --- lock independence -----------------------------------------------------

// TestReadsDoNotBlockOnStateLock pins the acceptance criterion
// literally: with the adaptation state lock held exclusively (as during
// an ApplyBatch or Step), single lookups, batch lookups and the watch
// feed all complete. Before the serving plane, every one of these would
// deadlock here.
func TestReadsDoNotBlockOnStateLock(t *testing.T) {
	s := testServer(t, nil)
	s.Enqueue(ringBatch(50))
	s.TickNow()
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.mu.Lock()
	defer s.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		// Single lookup.
		resp, err := http.Get(ts.URL + "/v1/placement/3")
		if err != nil {
			done <- err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("single lookup status %d", resp.StatusCode)
			return
		}
		// Batch lookup.
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(BatchRequest{Vertices: []int64{0, 1, 2}}) //nolint:errcheck
		resp, err = http.Post(ts.URL+"/v1/placements", "application/json", &buf)
		if err != nil {
			done <- err
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("batch lookup status %d", resp.StatusCode)
			return
		}
		// Watch: the epoch-2 diff is retained and served immediately.
		req, _ := http.NewRequest("GET", ts.URL+"/v1/watch?from=2", nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		if !sc.Scan() {
			resp.Body.Close()
			done <- fmt.Errorf("watch yielded no event")
			return
		}
		resp.Body.Close()
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked while the adaptation state lock was held")
	}
}

// --- the full race test ----------------------------------------------------

// TestServingPlaneConcurrency is the race test the ISSUE names:
// concurrent batch reads, watch consumers, mutation ingest, checkpoints
// and the background tick loop against one live server (CI runs this
// package under -race). Batch responses are additionally checked for
// internal sanity: epoch-stamped and every placement in range.
func TestServingPlaneConcurrency(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.TickEvery = time.Millisecond
		c.WatchRing = 16
		c.CheckpointPath = filepath.Join(t.TempDir(), "c.snap")
	})
	s.Enqueue(ringBatch(300))
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

	// Ingest: steady churn keeps adaptation (and epoch publishing) busy.
	for w := 0; w < 2; w++ {
		seed := int64(w)
		worker(func(i int) {
			rng := rand.New(rand.NewSource(seed*10000 + int64(i)))
			req := IngestRequest{}
			for j := 0; j < 8; j++ {
				if rng.Intn(5) == 0 {
					req.Mutations = append(req.Mutations, MutationJSON{
						Op: "remove-vertex", U: int64(rng.Intn(320))})
				} else {
					req.Mutations = append(req.Mutations, MutationJSON{
						Op: "add-edge", U: int64(rng.Intn(320)), V: int64(rng.Intn(320))})
				}
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
	// Batch readers: thousands of IDs per request, sanity-checked.
	var batchOK atomic.Int64
	for w := 0; w < 2; w++ {
		worker(func(i int) {
			ids := make([]int64, 2000)
			for j := range ids {
				ids[j] = int64((i*2000 + j) % 400)
			}
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(BatchRequest{Vertices: ids}) //nolint:errcheck
			resp, err := http.Post(ts.URL+"/v1/placements", "application/json", &buf)
			if err != nil {
				return
			}
			var br BatchResponse
			err = json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if br.Epoch == 0 {
				t.Error("batch response without epoch stamp")
				return
			}
			for _, pl := range br.Placements {
				if pl.Partition < -1 || pl.Partition >= 4 {
					t.Errorf("batch served partition %d for vertex %d", pl.Partition, pl.Vertex)
					return
				}
			}
			batchOK.Add(1)
		})
	}
	// Watch consumers: follow the feed, tolerate resyncs, require
	// monotonically increasing epochs per stream.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("GET", ts.URL+"/v1/watch", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			go func() { <-stop; resp.Body.Close() }()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			last := uint64(0)
			for sc.Scan() {
				var ev watchEvent
				if json.Unmarshal(sc.Bytes(), &ev) != nil {
					return
				}
				if !ev.Resync && ev.Epoch <= last {
					t.Errorf("watch epoch went backwards: %d after %d", ev.Epoch, last)
					return
				}
				last = ev.Epoch
			}
		}()
	}
	// Single readers and checkpoints.
	worker(func(i int) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/placement/%d", ts.URL, i%320))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	})
	worker(func(i int) {
		s.Checkpoint("") //nolint:errcheck
		time.Sleep(time.Millisecond)
	})

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Stop()

	if batchOK.Load() == 0 {
		t.Fatal("no batch read completed; the test exercised nothing")
	}
	if s.Routing().Epoch < 2 {
		t.Fatalf("no epochs published under load (epoch %d)", s.Routing().Epoch)
	}
	if !partition.WithinCapacities(asnOf(s), capsOf(s)) {
		t.Fatal("capacity invariant violated under concurrency")
	}
}

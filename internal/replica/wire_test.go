package replica

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
	"xdgp/internal/server"
)

// Tests of the replica's wire decoders (wire.go): the canonical scanner
// must agree with json.Unmarshal wherever it accepts an input, must
// accept everything a real primary writes, and must hand anything else
// to the fallback.

// realWire drives a real primary through churn and returns the watch
// lines (a resync line included) and bootstrap page bodies it wrote.
func realWire(tb testing.TB) (lines, pages [][]byte) {
	tb.Helper()
	cfg := server.DefaultConfig(4, 7)
	cfg.TickEvery = time.Hour
	s, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for round := 0; round < 6; round++ {
		b := ringBatch(40 + 30*round)
		b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: graph.VertexID(round * 7)})
		if _, ok := s.Enqueue(b); !ok {
			tb.Fatal("primary rejected batch")
		}
		s.TickNow()
	}
	last := s.Routing().Epoch

	// from=1 predates the ring (epoch 1 is the bootstrap snapshot), so
	// the stream opens with a resync line and then serves nothing older;
	// from=2 serves every retained diff.
	for _, from := range []int{1, 2} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/watch?from=%d", ts.URL, from))
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines = append(lines, bytes.Clone(sc.Bytes()))
			var ev struct{ Epoch uint64 }
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				tb.Fatal(err)
			}
			if ev.Epoch >= last || from == 1 {
				break
			}
		}
		resp.Body.Close()
	}
	for _, cursor := range []int64{0, 50, 150, 10_000} {
		body, _ := json.Marshal(map[string]int64{"cursor": cursor, "limit": 64})
		resp, err := http.Post(ts.URL+"/v1/placements", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		var page bytes.Buffer
		page.ReadFrom(resp.Body) //nolint:errcheck // checked by the decode below
		resp.Body.Close()
		pages = append(pages, page.Bytes())
	}
	return lines, pages
}

// canonicalPage renders a page the way the primary does
// (readplane.WriteJSON's indent), from the exported wire struct.
func canonicalPage(tb testing.TB, p server.PageResponse) []byte {
	tb.Helper()
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(raw, '\n')
}

func equalWatchLine(a, b watchLine) bool {
	return a.resync == b.resync && a.epoch == b.epoch && slices.Equal(a.changes, b.changes)
}

func TestRealPrimaryOutputTakesTheFastPath(t *testing.T) {
	lines, pages := realWire(t)
	resyncs, diffs := 0, 0
	for _, l := range lines {
		got, ok := scanWatchLine(l)
		if !ok {
			t.Fatalf("scanner refused a primary watch line: %.200q", l)
		}
		want, err := unmarshalWatchLine(l)
		if err != nil || !equalWatchLine(got, want) {
			t.Fatalf("line %.200q: scanner %+v, json %+v (%v)", l, got, want, err)
		}
		if got.resync {
			resyncs++
		} else {
			diffs++
		}
	}
	if resyncs != 1 || diffs < 6 {
		t.Fatalf("%d resync and %d diff lines, want 1 and ≥6", resyncs, diffs)
	}
	empty := 0
	for _, p := range pages {
		gotH, got, ok := scanPage(p, nil)
		if !ok {
			t.Fatalf("scanner refused a primary page: %.300q", p)
		}
		wantH, want, err := unmarshalPage(p, nil)
		if err != nil || gotH != wantH || !slices.Equal(got, want) {
			t.Fatalf("page %.300q: scanner %+v, json %+v (%v)", p, gotH, wantH, err)
		}
		if len(got) == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("%d empty pages, want 1", empty)
	}
}

func TestDecodeFallsBackOnNonCanonicalJSON(t *testing.T) {
	lines := []string{
		`{"epoch":5,"changes":[{"vertex":1,"from":-1,"to":2}]}`,
		`{"changes":[{"vertex":1,"from":-1,"to":2}],"epoch":5}`,
		`{ "epoch": 5, "changes": [ {"to":2,"vertex":1,"from":-1} ] }`,
		`{"epoch":5,"changes":[{"vertex":1,"from":-1,"to":2,"note":"x"}],"extra":{"a":[1,2]}}`,
		`{"resync":false,"epoch":5,"changes":[{"vertex":1,"from":-1,"to":2}]}`,
		`{"epoch":5,"changes":[{"vertex":1.0e0,"from":-1,"to":2}]}`,
	}
	want := watchLine{epoch: 5, changes: []partition.Change{{Vertex: 1, To: 2}}}
	for i, l := range lines {
		got, fast, err := decodeWatchLine([]byte(l))
		if err != nil && i < 5 {
			t.Fatalf("line %q: %v", l, err)
		}
		if fast != (i == 0) {
			t.Fatalf("line %q: fast=%v", l, fast)
		}
		if err == nil && !equalWatchLine(got, want) {
			t.Fatalf("line %q decoded to %+v", l, got)
		}
	}

	page := server.PageResponse{Epoch: 9, Instance: "a<b", K: 2, Slots: 4, NextCursor: -1,
		Placements: []readplane.BatchPlacement{{Vertex: 3, Partition: 1}}}
	body := canonicalPage(t, page) // json escapes "<": fallback
	pre := []partition.Change{{Vertex: 0, To: 0}}
	h, out, fast, err := decodePage(body, pre)
	if err != nil || fast {
		t.Fatalf("escaped instance: fast=%v err=%v", fast, err)
	}
	if h.instance != "a<b" || h.epoch != 9 || !slices.Equal(out, []partition.Change{{Vertex: 0, To: 0}, {Vertex: 3, To: 1}}) {
		t.Fatalf("escaped instance decoded to %+v %v", h, out)
	}
	page.Instance = "ab"
	compact, _ := json.Marshal(page)
	if _, out, fast, err := decodePage(compact, pre); err != nil || fast || len(out) != 2 {
		t.Fatalf("compact page: fast=%v err=%v out=%v", fast, err, out)
	}
	if _, _, fast, err := decodePage([]byte("{\n  \"epoch\": 1"), nil); err == nil || fast {
		t.Fatalf("truncated page: fast=%v err=%v", fast, err)
	}
}

// watchSeeds are hand-written corners on top of the real primary's lines.
var watchSeeds = []string{
	`{"resync":true,"epoch":18446744073709551615}`,
	`{"epoch":0}`,
	`{"epoch":3,"changes":[]}`,
	`{"epoch":4,"changes":[{"vertex":-9223372036854775808,"from":9223372036854775807,"to":-1}]}`,
	`{"epoch":4,"changes":[{"vertex":9223372036854775808,"from":0,"to":0}]}`,
	`{"epoch":18446744073709551616}`,
	`{"epoch":05}`,
	`{"epoch":5,"changes":[{"vertex":-0,"from":1,"to":2},{"vertex":3,"from":1,"to":2}]}`,
}

func FuzzWatchLine(f *testing.F) {
	lines, _ := realWire(f)
	for _, l := range lines {
		f.Add(l)
	}
	for _, l := range watchSeeds {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := scanWatchLine(line)
		if !ok {
			return
		}
		want, err := unmarshalWatchLine(line)
		if err != nil {
			t.Fatalf("scanner accepted %q; json.Unmarshal rejects it: %v", line, err)
		}
		if !equalWatchLine(got, want) {
			t.Fatalf("%q: scanner %+v, json.Unmarshal %+v", line, got, want)
		}
	})
}

func FuzzPageBody(f *testing.F) {
	_, pages := realWire(f)
	for _, p := range pages {
		f.Add(p)
		f.Add(p[:len(p)-3]) // refused after its placements were scanned
		// Raw invalid UTF-8 in the instance: json.Unmarshal replaces it.
		f.Add(bytes.Replace(p, []byte(`"instance": "`), []byte("\"instance\": \"\xff"), 1))
	}
	for _, inst := range []string{"ü", `q"q`, `a\b`, "<&>", "\x7f", ""} {
		f.Add(canonicalPage(f, server.PageResponse{Epoch: math.MaxUint64, Instance: inst, K: math.MaxInt64,
			Slots: math.MinInt64, NextCursor: math.MaxInt64,
			Placements: []readplane.BatchPlacement{{Vertex: math.MinInt64, Partition: math.MaxInt64}}}))
	}
	pre := []partition.Change{{Vertex: 7, To: 1}}
	f.Fuzz(func(t *testing.T, body []byte) {
		gotH, got, ok := scanPage(body, pre[:1:1])
		if !ok {
			if len(got) != 1 {
				t.Fatalf("refused page changed the entries to %v", got)
			}
			return
		}
		wantH, want, err := unmarshalPage(body, pre[:1:1])
		if err != nil {
			t.Fatalf("scanner accepted %q; json.Unmarshal rejects it: %v", body, err)
		}
		if gotH != wantH || !slices.Equal(got, want) {
			t.Fatalf("%q: scanner %+v %v, json.Unmarshal %+v %v", body, gotH, got, wantH, want)
		}
	})
}

// TestReplicaDecodesRealPrimaryOnFastPath tails a real primary through a
// ring-eviction resync and churn with epochs large enough to span
// several encoder chunks, and requires that no watch line or page ever
// needed the encoding/json fallback.
func TestReplicaDecodesRealPrimaryOnFastPath(t *testing.T) {
	s := newPrimary(t, func(c *server.Config) { c.WatchRing = 2 })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	advance(t, s, ringBatch(100))

	r := testReplica(t, ts.URL, nil)
	evicted := false
	r.testAfterPage = func(cursor int64) {
		if !evicted {
			evicted = true
			for i := 0; i < 4; i++ {
				advance(t, s, graph.Batch{{Kind: graph.MutAddEdge, U: graph.VertexID(400 + i), V: 401}})
			}
		}
	}
	r.Start()
	waitConverged(t, r, s)
	for round := 0; round < 8; round++ {
		n := 200 + 300*round // up to ~2.3k new vertices: a watch line of ~80 KiB
		b := make(graph.Batch, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, graph.Mutation{Kind: graph.MutAddEdge,
				U: graph.VertexID(1000 + i), V: graph.VertexID(1000 + (i*7+round)%n)})
		}
		b = append(b, graph.Mutation{Kind: graph.MutRemoveVertex, U: graph.VertexID(round)})
		advance(t, s, b)
		waitConverged(t, r, s)
	}

	st := r.Stats()
	if st.Resyncs < 1 || st.EventsApplied < 8 || st.BootstrapPages < 2 || st.ChangesApplied < 2000 {
		t.Fatalf("resyncs %d, events %d, pages %d, changes %d: the test did not exercise every line kind",
			st.Resyncs, st.EventsApplied, st.BootstrapPages, st.ChangesApplied)
	}
	if n := r.fallbacks.Load(); n != 0 {
		t.Fatalf("%d watch lines or pages fell back to encoding/json; the primary's encoder and the replica's scanner disagree", n)
	}
}

// TestReplicaResyncsOnOversizedWatchLine lowers the watch line cap below
// one epoch's diff: the replica must re-bootstrap past that epoch, not
// reconnect onto the same line for as long as the primary retains it.
func TestReplicaResyncsOnOversizedWatchLine(t *testing.T) {
	saved := maxWatchLine
	maxWatchLine = 4 << 10
	t.Cleanup(func() { maxWatchLine = saved })

	s := newPrimary(t, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	advance(t, s, ringBatch(30))

	r := testReplica(t, ts.URL, nil)
	r.Start()
	waitConverged(t, r, s)
	b := make(graph.Batch, 0, 400)
	for i := 0; i < 400; i++ { // ≈400 changes ≈ 14 KiB of watch line
		b = append(b, graph.Mutation{Kind: graph.MutAddEdge, U: graph.VertexID(100 + i), V: graph.VertexID(101 + i)})
	}
	advance(t, s, b)
	waitConverged(t, r, s)
	if st := r.Stats(); st.Resyncs != 1 || st.Bootstraps != 2 {
		t.Fatalf("resyncs %d, bootstraps %d; want 1 and 2", st.Resyncs, st.Bootstraps)
	}

	// Lines under the cap still tail incrementally afterwards.
	advance(t, s, graph.Batch{{Kind: graph.MutAddEdge, U: 900, V: 901}})
	waitConverged(t, r, s)
	if st := r.Stats(); st.Resyncs != 1 || st.EventsApplied == 0 {
		t.Fatalf("resyncs %d, events %d after a small epoch; want 1 and >0", st.Resyncs, st.EventsApplied)
	}
}

// TestReplicaRefusesOutOfRangePartitions serves a replica k=4 pages and
// watch lines naming partitions it cannot hold: at or above k, at or
// above partition.MaxK, and one that would wrap to a valid ID in 32 bits.
// Each is refused (no table, or no applied epoch), never stored wrapped,
// and a well-formed line afterwards still applies. A refused watch line
// forces a resync, not a reconnect: reconnecting at the same epoch would
// meet the same line again.
func TestReplicaRefusesOutOfRangePartitions(t *testing.T) {
	var pagePart, pageReqs atomic.Int64
	var line atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/placements":
			pageReqs.Add(1)
			w.Write(canonicalPage(t, server.PageResponse{Epoch: 1, Instance: "i", K: 4, Slots: 2, NextCursor: -1,
				Placements: []readplane.BatchPlacement{{Vertex: 0, Partition: 1}, {Vertex: 1, Partition: pagePart.Load()}}}))
		case "/v1/watch":
			fmt.Fprintln(w, line.Load())
		default:
			http.NotFound(w, req)
		}
	}))
	t.Cleanup(ts.Close)

	for _, bad := range []int64{4, 255, 256, 1<<32 + 2} {
		pagePart.Store(bad)
		pageReqs.Store(0)
		r := testReplica(t, ts.URL, nil)
		r.Start()
		waitFor(t, 5*time.Second, func() bool { return pageReqs.Load() >= 3 }, "three bootstrap attempts")
		if _, _, ok := r.Snapshot(); ok || r.Stats().Bootstraps != 0 {
			t.Fatalf("page partition %d: replica bootstrapped (bootstraps %d)", bad, r.Stats().Bootstraps)
		}
		r.Stop()
	}

	pagePart.Store(2)
	line.Store(`{"epoch":1}`)
	r := testReplica(t, ts.URL, nil)
	r.Start()
	waitFor(t, 5*time.Second, func() bool { _, _, ok := r.Snapshot(); return ok }, "bootstrap")
	for _, bad := range []int64{4, 255, 256, 257, 1<<32 + 2} {
		line.Store(fmt.Sprintf(`{"epoch":2,"changes":[{"vertex":0,"from":1,"to":%d}]}`, bad))
		before := r.Stats().Resyncs
		waitFor(t, 5*time.Second, func() bool { return r.Stats().Resyncs >= before+2 }, "two refused watch lines")
		f, epoch, ok := r.Snapshot()
		if !ok || epoch != 1 || f.Of(0) != 1 || r.Stats().EventsApplied != 0 {
			t.Fatalf("to=%d: serving %v at epoch %d, events %d; want the line refused and the table kept at epoch 1",
				bad, ok, epoch, r.Stats().EventsApplied)
		}
	}
	// The refused line comes back after every re-bootstrap: the resyncs
	// back off like failed bootstraps (at least ReconnectMin/2 apart,
	// doubling to ReconnectMax/2 = 10ms) instead of re-paging back to
	// back, so 200ms hold at most ~20 of them.
	booted := r.Stats().Bootstraps
	time.Sleep(200 * time.Millisecond)
	if n := r.Stats().Bootstraps - booted; n > 25 {
		t.Fatalf("%d bootstraps in 200ms on one refused line, want the resyncs backed off", n)
	}
	// A line cut mid-way is a transport drop: reconnect, no resync.
	line.Store(`{"epoch":2,"changes":[{"vertex":0,"fr`)
	before, resyncs := r.Stats().Reconnects, r.Stats().Resyncs
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Reconnects >= before+2 }, "two reconnects on a cut line")
	if st := r.Stats(); st.Resyncs > resyncs+1 || st.EventsApplied != 0 {
		t.Fatalf("cut line: resyncs %d → %d, events %d; want reconnects only", resyncs, st.Resyncs, st.EventsApplied)
	}
	line.Store(`{"epoch":2,"changes":[{"vertex":0,"from":1,"to":3}]}`)
	waitFor(t, 5*time.Second, func() bool { _, epoch, _ := r.Snapshot(); return epoch == 2 }, "the valid line")
	if f, _, _ := r.Snapshot(); f.Of(0) != 3 || f.Of(1) != 2 {
		t.Fatalf("after the valid line: Of(0)=%d Of(1)=%d, want 3 and 2", f.Of(0), f.Of(1))
	}
}

func BenchmarkWatchDecode(b *testing.B) {
	d := server.EpochDiff{Epoch: 123456}
	for v := range 2000 {
		d.Changes = append(d.Changes, server.PlacementChange{Vertex: int64(v*211 + v%200), From: int64(v % 8), To: int64((v + 3) % 8)})
	}
	line, err := json.Marshal(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, fast, err := decodeWatchLine(line); !fast || err != nil {
			b.Fatalf("fast=%v err=%v", fast, err)
		}
	}
}

func BenchmarkPageDecode(b *testing.B) {
	p := server.PageResponse{Epoch: 42, Instance: "5f0c3a9e1b2d4c6f", K: 8, Slots: 300_000, NextCursor: 100_000}
	for v := range 100_000 {
		p.Placements = append(p.Placements, readplane.BatchPlacement{Vertex: int64(v), Partition: int64(v % 8)})
	}
	body := canonicalPage(b, p)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, fast, err := decodePage(body, nil); !fast || err != nil {
			b.Fatalf("fast=%v err=%v", fast, err)
		}
	}
}

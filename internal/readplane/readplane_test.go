package readplane

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/heat"
	"xdgp/internal/partition"
)

// testTable places vertices 0..3 in partition v%4 of a k=4 table.
var testTable = partition.NewFrozen(4).Apply([]partition.Change{
	{Vertex: 0, To: 0}, {Vertex: 1, To: 1}, {Vertex: 2, To: 2}, {Vertex: 3, To: 3},
})

// testPlane returns a plane with no table published yet, recording
// every read in a heat table that samples each one and counting reads in
// its Reads counter; Publish(7, testTable) makes it serve. Requests run
// synchronously through the returned mux.
func testPlane() (*Plane, *http.ServeMux) {
	p := &Plane{
		NotServing: func() error { return errors.New("not serving yet") },
		Heat:       heat.New(1),
		Reads:      new(atomic.Uint64),
	}
	p.Heat.SetRecording(true)
	mux := http.NewServeMux()
	p.Register(mux)
	return p, mux
}

// heatReads returns the vertices recorded since the last call, sorted
// (the heat table's shards do not keep the read order).
func heatReads(p *Plane) string {
	reads := p.Heat.Drain(nil)
	slices.Sort(reads)
	return fmt.Sprint(reads)
}

// do sends a GET (empty body) or a POST and returns the recorded reply.
func do(mux *http.ServeMux, path, body string) (*httptest.ResponseRecorder, string) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if body != "" {
		req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

func TestPlaneAnswersAndCounts(t *testing.T) {
	p, mux := testPlane()

	resp, body := do(mux, "/v1/placement/1", "")
	if resp.Code != http.StatusServiceUnavailable || resp.Header().Get("Retry-After") != "1" ||
		!strings.Contains(body, "not serving yet") {
		t.Fatalf("before serving: %d %q Retry-After %q", resp.Code, body, resp.Header().Get("Retry-After"))
	}
	if resp, _ := do(mux, "/v1/placements", `{"vertices":[1]}`); resp.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch before serving: %d", resp.Code)
	}

	p.Publish(7, testTable)
	for _, c := range []struct {
		path, body string
		status     int
		want       string
	}{
		{"/v1/placement/2", "", 200, "{\n  \"partition\": 2,\n  \"vertex\": 2\n}\n"},
		{"/v1/placement/9", "", 404, "vertex 9 is not placed at epoch 7"},
		{"/v1/placement/x", "", 400, `vertex \"x\"`},
		{"/v1/placement/-1", "", 400, "error"},
		{"/v1/placements", `{"vertices":[3,9]}`, 200,
			"{\n  \"epoch\": 7,\n  \"placements\": [\n    {\n      \"vertex\": 3,\n      \"partition\": 3\n    },\n" +
				"    {\n      \"vertex\": 9,\n      \"partition\": -1\n    }\n  ]\n}\n"},
		{"/v1/placements", `{"vertices":[1,16777217]}`, 400, "vertex 1:"},
		{"/v1/placements", `{"vertices":[1],"x":0}`, 400, "decode body"},
		{"/v1/placements", `{"cursor":0,"limit":2}`, 400, "replicas do not serve bootstrap pages"},
	} {
		resp, body := do(mux, c.path, c.body)
		if resp.Code != c.status || !strings.Contains(body, c.want) || resp.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: %d %q (Content-Type %q), want %d containing %q",
				c.path, c.body, resp.Code, body, resp.Header().Get("Content-Type"), c.status, c.want)
		}
		if resp.Header().Get("X-Apartd-Owner-Shard") != "" {
			t.Fatalf("%s: owner header without an Owner hook", c.path)
		}
	}
	if got := heatReads(p); got != "[2 3 9 9]" {
		t.Fatalf("heat recorded %s, want [2 3 9 9]", got)
	}
	if b, e, r, n := p.Batches.Load(), p.BatchEntries.Load(), p.Reads.Load(), p.NotReady.Load(); b != 1 || e != 2 || r != 4 || n != 2 {
		t.Fatalf("counters batches %d entries %d reads %d not-ready %d, want 1 2 4 2", b, e, r, n)
	}
}

func TestPlanePagesAndOwner(t *testing.T) {
	p, mux := testPlane()
	p.Publish(7, testTable)
	p.Page = func(w io.Writer, epoch uint64, table *partition.Frozen, cursor, limit int64) int {
		fmt.Fprintf(w, "page epoch=%d k=%d cursor=%d limit=%d", epoch, table.K(), cursor, limit)
		return 3
	}
	p.Owner = func(v graph.VertexID, slots int) int { return int(v) * 10 / slots }

	resp, body := do(mux, "/v1/placement/3", "")
	if resp.Header().Get("X-Apartd-Owner-Shard") != "7" || !strings.Contains(body, `"owner_shard": 7`) {
		t.Fatalf("owner: header %q body %q, want 7", resp.Header().Get("X-Apartd-Owner-Shard"), body)
	}
	for body, want := range map[string]string{
		`{"cursor":1,"limit":2}`:                   "page epoch=7 k=4 cursor=1 limit=2",
		`{"cursor":0,"limit":2,"vertices":[1]}`:    "mutually exclusive",
		`{"cursor":0}`:                             "needs both",
		`{"limit":3}`:                              "needs both",
		`{"cursor":-1,"limit":3}`:                  "negative",
		`{"cursor":0,"limit":100001}`:              "exceeds the per-request maximum",
		`{"cursor":0,"limit":100000,"extra":true}`: "decode body",
	} {
		resp, got := do(mux, "/v1/placements", body)
		if !strings.Contains(got, want) || (resp.Code == 200) != strings.HasPrefix(want, "page") {
			t.Fatalf("%s: %d %q, want %q", body, resp.Code, got, want)
		}
	}
	if b, e, r := p.Batches.Load(), p.BatchEntries.Load(), p.Reads.Load(); b != 1 || e != 3 || r != 4 {
		t.Fatalf("counters batches %d entries %d reads %d, want 1 3 4", b, e, r)
	}
	lookup, err := p.Lookup([]graph.VertexID{0, 2})
	if err != nil || lookup.Epoch != 7 || len(lookup.Placements) != 2 || lookup.Placements[1] != (BatchPlacement{2, 2}) {
		t.Fatalf("Lookup: %+v, %v", lookup, err)
	}
}

// TestPlaneOne pins the single lookup the daemons' in-process Placement
// calls: what it answers, that it counts and records exactly one read,
// that a withdrawn table refuses it, and that a plane with only a table
// (the primary's shape, minus heat) serves.
func TestPlaneOne(t *testing.T) {
	p, _ := testPlane()
	if _, part, _, ok := p.One(1); ok || part != partition.None || p.Reads.Load() != 0 {
		t.Fatalf("One before Publish: %d, %v", part, ok)
	}
	p.Publish(7, testTable)
	if epoch, part, slots, ok := p.One(2); !ok || epoch != 7 || part != 2 || slots != testTable.Slots() {
		t.Fatalf("One(2) = %d %d %d %v, want 7 2 %d", epoch, part, slots, ok, testTable.Slots())
	}
	if _, part, _, _ := p.One(9); part != partition.None || heatReads(p) != "[2 9]" || p.Reads.Load() != 2 {
		t.Fatalf("One(9) = %d; counter %d", part, p.Reads.Load())
	}
	p.Publish(0, nil)
	if _, _, err := p.Load(); err == nil {
		t.Fatal("Load after withdrawal succeeded")
	}

	bare := &Plane{}
	bare.Publish(3, testTable)
	if epoch, part, _, ok := bare.One(3); !ok || epoch != 3 || part != 3 {
		t.Fatalf("bare plane One(3) = %d %d %v", epoch, part, ok)
	}
	if resp, err := bare.Lookup([]graph.VertexID{1}); err != nil || bare.Batches.Load() != 1 || resp.Placements[0].Partition != 1 {
		t.Fatalf("bare plane Lookup: %+v %v", resp, err)
	}
}

func TestMetricsText(t *testing.T) {
	var m Metrics
	m.Counter("x_total", "Things.", 3)
	m.Gauge("y", "Level.", 0.5)
	rec := httptest.NewRecorder()
	m.Serve(rec)
	want := "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n# HELP y Level.\n# TYPE y gauge\ny 0.5\n"
	if rec.Body.String() != want || rec.Code != 200 || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("metrics page %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

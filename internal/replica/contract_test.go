package replica

// The cross-tier read contract: one table of placement reads sent to a
// primary and to a serving replica of it at the same epoch must get the
// same status and Content-Type from both, byte-identical bodies for
// every success, and exactly the counter movements listed at the end.

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xdgp/internal/server"
)

// contractResp is one answer to a contract request.
type contractResp struct {
	status int
	ctype  string
	body   []byte
}

// contractDo sends one read (GET when body is empty, else POST
// /v1/placements with body) and returns the answer.
func contractDo(t *testing.T, base, path, body string) contractResp {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(base + path)
	} else {
		resp, err = http.Post(base+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return contractResp{resp.StatusCode, resp.Header.Get("Content-Type"), raw}
}

// scrapeCounter reads one un-labelled sample off a /metrics page.
func scrapeCounter(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s/metrics has no %s", base, name)
	return 0
}

// idList renders n copies of id as a JSON array body for "vertices".
func idList(n int, id string) string {
	var b strings.Builder
	b.WriteString(`{"vertices":[`)
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(id)
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestReadContractPrimaryAndReplica(t *testing.T) {
	s := newPrimary(t, func(c *server.Config) { c.HeatRecord = true })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the replica's Stop: its watch stream holds a conn open
	advance(t, s, ringBatch(40))

	r := testReplica(t, ts.URL, nil)
	rts := httptest.NewServer(r)
	defer rts.Close()

	// Before the replica serves: a valid read is a 503 and counts as
	// not-ready; an invalid ID is still a 400 and counts as nothing.
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/placement/3", "", http.StatusServiceUnavailable},
		{"/v1/placements", `{"vertices":[0,1]}`, http.StatusServiceUnavailable},
		{"/v1/placement/-1", "", http.StatusBadRequest},
	} {
		got := contractDo(t, rts.URL, c.path, c.body)
		if got.status != c.want {
			t.Fatalf("before serving, %s %s: status %d (%s), want %d", c.path, c.body, got.status, got.body, c.want)
		}
		if got.status == http.StatusServiceUnavailable &&
			(!bytes.Contains(got.body, []byte("replica is not serving yet")) || got.ctype != "application/json") {
			t.Fatalf("before serving, %s: body %s, Content-Type %q", c.path, got.body, got.ctype)
		}
	}
	if n := scrapeCounter(t, rts.URL, "apartr_not_ready_total"); n != 2 {
		t.Fatalf("apartr_not_ready_total = %d before serving, want 2", n)
	}
	if n := scrapeCounter(t, rts.URL, "apartr_reads_total"); n != 0 {
		t.Fatalf("apartr_reads_total = %d before serving, want 0", n)
	}

	r.Start()
	waitConverged(t, r, s)

	names := []string{"apartd_batch_requests_total", "apartd_batch_lookups_total", "apartd_heat_reads_total"}
	before := map[string]uint64{}
	for _, n := range names {
		before[n] = scrapeCounter(t, ts.URL, n)
	}
	huge := `{"vertices":[1]` + strings.Repeat(" ", 4<<20) + `}`
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"placed vertex", "/v1/placement/7", "", http.StatusOK},
		{"unplaced vertex", "/v1/placement/99999", "", http.StatusNotFound},
		{"negative ID", "/v1/placement/-1", "", http.StatusBadRequest},
		{"ID past the read maximum", "/v1/placement/16777217", "", http.StatusBadRequest},
		{"non-numeric ID", "/v1/placement/abc", "", http.StatusBadRequest},
		{"batch with an unplaced ID", "/v1/placements", `{"vertices":[0,1,99999,39]}`, http.StatusOK},
		{"batch over the ID cap", "/v1/placements", idList(100_001, "0"), http.StatusBadRequest},
		{"unknown JSON field", "/v1/placements", `{"vertices":[1],"extra":1}`, http.StatusBadRequest},
		{"body over 4 MiB", "/v1/placements", huge, http.StatusBadRequest},
	} {
		p := contractDo(t, ts.URL, c.path, c.body)
		q := contractDo(t, rts.URL, c.path, c.body)
		if p.status != c.want || q.status != c.want {
			t.Fatalf("%s: primary %d (%s), replica %d (%s), want %d", c.name, p.status, p.body, q.status, q.body, c.want)
		}
		if p.ctype != q.ctype || p.ctype != "application/json" {
			t.Fatalf("%s: Content-Type primary %q, replica %q", c.name, p.ctype, q.ctype)
		}
		if c.want == http.StatusOK && !bytes.Equal(p.body, q.body) {
			t.Fatalf("%s: bodies differ\nprimary: %s\nreplica: %s", c.name, p.body, q.body)
		}
	}

	// One bootstrap page from the primary counts as one batch request
	// of its entries; the replica refuses the page form.
	if got := contractDo(t, ts.URL, "/v1/placements", `{"cursor":0,"limit":10}`); got.status != http.StatusOK {
		t.Fatalf("page on the primary: status %d (%s)", got.status, got.body)
	}
	if got := contractDo(t, rts.URL, "/v1/placements", `{"cursor":0,"limit":10}`); got.status != http.StatusBadRequest ||
		!bytes.Contains(got.body, []byte("replicas do not serve bootstrap pages")) {
		t.Fatalf("page on the replica: status %d (%s), want 400", got.status, got.body)
	}

	// Primary: two batch requests (the lookup and the page) of 4 and 10
	// entries; heat counts every entry read, the two single reads
	// included, and nothing for a refused request.
	for name, want := range map[string]uint64{
		"apartd_batch_requests_total": 2,
		"apartd_batch_lookups_total":  4 + 10,
		"apartd_heat_reads_total":     2 + 4 + 10,
	} {
		if got := scrapeCounter(t, ts.URL, name) - before[name]; got != want {
			t.Errorf("%s grew by %d over the request mix, want %d", name, got, want)
		}
	}
	// Replica: two single reads and four batch entries served, nothing
	// more refused as not ready.
	for name, want := range map[string]uint64{
		"apartr_reads_total":     2 + 4,
		"apartr_not_ready_total": 2,
	} {
		if got := scrapeCounter(t, rts.URL, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

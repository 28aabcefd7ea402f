package server

// Tests for the replica-bootstrap affordances on the serving plane: the
// paged form of POST /v1/placements and the process-incarnation token.
// The consuming side (the replica's bootstrap/tail/resync state machine)
// lives in internal/replica; these tests pin the server half of the
// protocol documented in docs/REPLICATION.md.

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/readplane"
)

// pagePlacements posts one paged placement request and decodes the page.
func pagePlacements(t *testing.T, ts *httptest.Server, cursor, limit int64) PageResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/placements", map[string]int64{
		"cursor": cursor,
		"limit":  limit,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("page cursor=%d limit=%d: status %d body %s", cursor, limit, resp.StatusCode, body)
	}
	var page PageResponse
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("page body %s: %v", body, err)
	}
	return page
}

func TestBatchPlacementsPagingCoversTable(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.Enqueue(ringBatch(130))
	s.TickNow()
	// Punch holes in the ID space so pages must skip unplaced slots.
	s.Enqueue(graph.Batch{
		{Kind: graph.MutRemoveVertex, U: 10},
		{Kind: graph.MutRemoveVertex, U: 64},
		{Kind: graph.MutRemoveVertex, U: 129},
	})
	s.TickNow()
	want := s.Routing()

	// Page through with a limit far below the table size; the union of
	// pages must equal the full table, every page stamped with the (now
	// quiescent) epoch and this process's instance token.
	got := partition.NewFrozen(want.Table.K())
	var cursor int64
	pages := 0
	for {
		page := pagePlacements(t, ts, cursor, 48)
		if page.Epoch != want.Epoch {
			t.Fatalf("page at cursor %d stamped epoch %d, want %d", cursor, page.Epoch, want.Epoch)
		}
		if page.Instance != s.Instance() {
			t.Fatalf("page instance %q, want %q", page.Instance, s.Instance())
		}
		if page.K != want.Table.K() || page.Slots != int64(want.Table.Slots()) {
			t.Fatalf("page header k=%d slots=%d, want k=%d slots=%d",
				page.K, page.Slots, want.Table.K(), want.Table.Slots())
		}
		changes := make([]partition.Change, 0, len(page.Placements))
		for _, p := range page.Placements {
			if p.Partition == int64(partition.None) {
				t.Fatalf("page contains unplaced vertex %d", p.Vertex)
			}
			if p.Vertex < cursor || p.Vertex >= cursor+48 {
				t.Fatalf("vertex %d outside page range [%d,%d)", p.Vertex, cursor, cursor+48)
			}
			changes = append(changes, partition.Change{
				Vertex: graph.VertexID(p.Vertex), To: partition.ID(p.Partition),
			})
		}
		got = got.Apply(changes)
		pages++
		if page.NextCursor < 0 {
			break
		}
		if page.NextCursor != cursor+48 {
			t.Fatalf("next_cursor %d, want %d", page.NextCursor, cursor+48)
		}
		cursor = page.NextCursor
	}
	if pages < 3 {
		t.Fatalf("paging exercised only %d pages", pages)
	}
	if got.Assigned() != want.Table.Assigned() {
		t.Fatalf("paged copy has %d assigned, want %d", got.Assigned(), want.Table.Assigned())
	}
	for v := 0; v < want.Table.Slots(); v++ {
		if got.Of(graph.VertexID(v)) != want.Table.Of(graph.VertexID(v)) {
			t.Fatalf("vertex %d: paged copy %d, table %d",
				v, got.Of(graph.VertexID(v)), want.Table.Of(graph.VertexID(v)))
		}
	}

	// A cursor at or past the end is a valid empty final page, not an
	// error — bootstrap loops terminate on next_cursor, but an exact-fit
	// table makes the last non-empty page point one past the end.
	tail := pagePlacements(t, ts, tableSlots(t, ts), 48)
	if len(tail.Placements) != 0 || tail.NextCursor != -1 {
		t.Fatalf("past-the-end page %+v, want empty and final", tail)
	}
}

// tableSlots reads the table size via a minimal page request.
func tableSlots(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	return pagePlacements(t, ts, 0, 1).Slots
}

func TestBatchPlacementsPagingValidation(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Enqueue(ringBatch(10))
	s.TickNow()

	for name, body := range map[string]any{
		"mixed forms":     map[string]any{"vertices": []int64{1}, "cursor": 0, "limit": 5},
		"limit only":      map[string]any{"limit": 5},
		"cursor only":     map[string]any{"cursor": 0},
		"zero limit":      map[string]any{"cursor": 0, "limit": 0},
		"negative limit":  map[string]any{"cursor": 0, "limit": -3},
		"negative cursor": map[string]any{"cursor": -1, "limit": 5},
		"oversized limit": map[string]any{"cursor": 0, "limit": readplane.MaxBatchVertices + 1},
		"unknown field":   map[string]any{"cursor": 0, "limit": 5, "epoch": 3},
	} {
		resp, respBody := postJSON(t, ts, "/v1/placements", body)
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d (body %s), want 400", name, resp.StatusCode, respBody)
		}
	}
}

func TestInstanceTokenIdentifiesProcess(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if s.Instance() == "" {
		t.Fatal("empty instance token")
	}
	// Every response carries the header, stable across requests.
	for _, path := range []string{"/v1/stats", "/healthz", "/metrics"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Header.Get("X-Apartd-Instance")
		resp.Body.Close()
		if got != s.Instance() {
			t.Fatalf("%s: X-Apartd-Instance %q, want %q", path, got, s.Instance())
		}
	}
	// Stats exposes the same token plus the routing epoch.
	s.Enqueue(ringBatch(12))
	s.TickNow()
	st := s.Stats()
	if st.Instance != s.Instance() {
		t.Fatalf("stats instance %q, want %q", st.Instance, s.Instance())
	}
	if st.RoutingEpoch != s.Routing().Epoch {
		t.Fatalf("stats routing_epoch %d, want %d", st.RoutingEpoch, s.Routing().Epoch)
	}

	// A second server (a "restarted" daemon) draws a different token —
	// the property replicas use to detect upstream restarts.
	other := testServer(t, nil)
	if other.Instance() == s.Instance() {
		t.Fatal("two server incarnations share an instance token")
	}
}

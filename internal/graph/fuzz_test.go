package graph

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"
)

// The fuzz targets assert the parser and codec robustness contract:
// arbitrary input — malformed lines, huge or negative IDs, truncated
// files, binary noise — must produce either a structurally sound graph or
// an error, never a panic and never an unbounded allocation. Run
// continuously with
//
//	go test -fuzz=FuzzReadEdgeList ./internal/graph
//	go test -fuzz=FuzzReadMetis ./internal/graph
//	go test -fuzz=FuzzDecodeGraph ./internal/graph
//
// and in CI the seed corpus below executes as ordinary tests.

func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"# vertices 3 edges 2 directed false\n0 1\n1 2\n",
		"0 1\n1 2\n2 0\n",
		"7\n",                      // isolated vertex
		"0 1 9.5\n",                // trailing weight field (SNAP variants)
		"a b\n",                    // non-numeric
		"1 x\n",                    // second field non-numeric
		"-1 2\n",                   // negative ID
		"0 -7\n",                   // negative second ID
		"99999999999999999999 1\n", // overflows int64
		"4294967296 1\n",           // overflows int32
		"16777217 0\n",             // just above MaxReadVertexID
		"0 1",                      // no trailing newline
		"0\x001\n",                 // NUL byte
		"0 1\n0 1\n1 0\n",          // duplicates and reciprocal
		"5 5\n",                    // self-loop
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, input string, directed bool) {
		g, err := ReadEdgeList(strings.NewReader(input), directed)
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted input produced inconsistent graph: %v\ninput: %q", err, input)
		}
	})
}

func FuzzReadMetis(f *testing.F) {
	seeds := []string{
		"",
		"3 3\n2 3\n1 3\n1 2\n",
		"% comment\n2 1\n2\n1\n",
		"4 2\n2\n1\n4\n3\n",
		"2 1\n2\n",                 // truncated: vertex 2's line missing
		"3 9\n2\n1\n\n",            // edge count mismatch
		"2 1 011\n2\n1\n",          // weighted flag
		"-1 0\n",                   // negative n
		"99999999999999999999 0\n", // n overflows
		"16777217 0\n",             // n above MaxReadVertexID
		"2 1\n3\n1\n",              // neighbour out of range
		"2 1\n0\n1\n",              // neighbour below 1
		"2 1\nx\n1\n",              // non-numeric neighbour
		"1 0\n1\n",                 // self-loop (vertex 1 lists itself)
		"junk\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadMetis(strings.NewReader(input))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted input produced inconsistent graph: %v\ninput: %q", err, input)
		}
	})
}

// fuzzSeedGraphs are the interesting regions of the binary format: a
// compacted graph (overlay-free), an overlay-heavy one taken mid-churn,
// a directed graph built purely in the overlay, an empty graph, and a
// directed graph with both a base and an overlay in each direction.
func fuzzSeedGraphs() []*Graph {
	compacted := buildChurnedGraph(false)
	compacted.Compact()
	dirty := buildChurnedGraph(false)
	dirty.Compact()
	dirty.RemoveEdge(2, 3)
	dirty.RemoveVertex(9)
	v := dirty.AddVertex()
	dirty.AddEdge(v, 0)
	dirty.AddEdge(v, 5)
	dirDirty := buildChurnedGraph(true)
	dirDirty.Compact()
	dirDirty.RemoveEdge(2, 3)
	dirDirty.RemoveVertex(9)
	w := dirDirty.AddVertex()
	dirDirty.AddEdge(w, 0)
	dirDirty.AddEdge(5, w)
	return []*Graph{compacted, dirty, buildChurnedGraph(true), NewUndirected(0), dirDirty}
}

// TestAppendBinaryPinned pins the bytes of the seed graphs: the lengths
// and CRC-32s were recorded from the bufio-based encoder the append
// encoder replaced.
func TestAppendBinaryPinned(t *testing.T) {
	want := []struct {
		n   int
		crc uint32
	}{{229, 0x78efdc72}, {269, 0x9b7caebb}, {481, 0x4c117534}, {45, 0xc68097a4}, {393, 0x2fcdd470}}
	for i, g := range fuzzSeedGraphs() {
		data, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != want[i].n || crc32.ChecksumIEEE(data) != want[i].crc || g.BinarySize() != len(data) {
			t.Errorf("seed %d: %d bytes (BinarySize %d) crc %08x, pinned %d bytes crc %08x",
				i, len(data), g.BinarySize(), crc32.ChecksumIEEE(data), want[i].n, want[i].crc)
		}
	}
}

// FuzzDecodeGraph feeds arbitrary bytes through the binary arena codec:
// any input must either decode to a graph that passes CheckInvariants and
// re-encodes byte-identically (the determinism contract checkpoints rely
// on), or fail with a clean error — never panic, never allocate
// unboundedly. Every input must also get the same verdict from the
// per-end reference check (checkInvariantsRef) as from the one-pass
// CheckInvariants. The corpus is fuzzSeedGraphs plus the differential
// test's mutated encodes, committed under testdata/fuzz/FuzzDecodeGraph
// (regenerate them with TestWriteDiffCorpus).
func FuzzDecodeGraph(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		data, err := g.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraph(data)
		if refErr := referenceDecode(data); (err == nil) != (refErr == nil) {
			t.Fatalf("verdicts differ: production %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted payload produced inconsistent graph: %v", err)
		}
		out, err := g.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded graph failed to re-encode: %v", err)
		}
		// Re-decode the re-encode: the codec must be a fixed point after
		// one round trip.
		g2, err := DecodeGraph(out)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		out2, err := g2.AppendBinary(nil)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", len(out), len(out2))
		}
	})
}

// TestReadEdgeListRejectsHostileIDs pins the explicit error contract the
// fuzz targets rely on: negative and oversized IDs must fail fast instead
// of sizing the dense vertex table to the ID.
func TestReadEdgeListRejectsHostileIDs(t *testing.T) {
	cases := []string{
		"-1 2\n",
		"0 -2\n",
		"16777217 0\n", // MaxReadVertexID + 1
		"0 16777217\n",
		"9223372036854775808 0\n", // overflows int64
		"4294967296 1\n",          // overflows int32 but not int64
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
	// Large-but-legal IDs parse fine (the full 1<<24 boundary is legal too
	// but materialises a table of several hundred megabytes, so the test
	// stops at a million slots).
	if _, err := ReadEdgeList(strings.NewReader("1000000\n"), false); err != nil {
		t.Errorf("large legal ID must be accepted: %v", err)
	}
}

func TestReadMetisRejectsHostileHeaders(t *testing.T) {
	cases := []string{
		"16777217 0\n",             // n above MaxReadVertexID
		"99999999999999999999 0\n", // n overflows
		"-3 1\n",
	}
	for _, in := range cases {
		if _, err := ReadMetis(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

package apps

import (
	"math"
	"strings"
	"testing"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Unit pins for the small exported surfaces of the streaming suite: value
// accessors on foreign values, the flood combiner, clone edge cases, and
// VerifyStreaming's failure modes (the differential harness only ever
// sees it succeed).

func TestStreamingValueAccessors(t *testing.T) {
	if _, ok := StreamingCCLabel(nil); ok {
		t.Error("CC label from nil value")
	}
	if _, ok := StreamingCCLabel("foreign"); ok {
		t.Error("CC label from foreign value")
	}
	if got, ok := StreamingCCLabel(floodState{key: 5}); !ok || got != 5 {
		t.Errorf("CC label = %v, %v", got, ok)
	}
	if _, ok := StreamingSSSPDist(nil); ok {
		t.Error("SSSP distance from nil value")
	}
	if got, ok := StreamingSSSPDist(floodState{key: math.Inf(1), hops: 3}); !ok || !math.IsInf(got, 1) {
		t.Errorf("unreachable SSSP distance = %v, %v", got, ok)
	}
	if got, ok := StreamingSSSPDist(floodState{key: 0, hops: 4}); !ok || got != 4 {
		t.Errorf("SSSP distance = %v, %v", got, ok)
	}
	if _, ok := StreamingRank(nil); ok {
		t.Error("rank from nil value")
	}
	if got, ok := StreamingRank(&prState{rank: 2.5}); !ok || got != 2.5 {
		t.Errorf("rank = %v, %v", got, ok)
	}
}

func TestCombineFloodConcatenates(t *testing.T) {
	a := floodMsg{entries: []floodEntry{{key: 1, from: 7}}}
	b := floodMsg{entries: []floodEntry{{key: 2, from: 8}}}
	merged := combineFlood(a, b)
	if len(merged.entries) != 2 || merged.entries[0].from != 7 || merged.entries[1].from != 8 {
		t.Fatalf("merged = %+v", merged)
	}
}

func TestWithoutCombinerCloneValue(t *testing.T) {
	// Wrapping a ValueCloner forwards to its deep copy.
	pr := WithoutCombiner[prMsg]{P: NewStreamingPageRank()}
	orig := &prState{rank: 1, in: []prContrib{{from: 3, share: 0.5}}}
	clone := pr.CloneValue(orig).(*prState)
	orig.in[0].share = 9
	if clone.in[0].share != 0.5 {
		t.Error("clone aliases the original in-contribution table")
	}
	// Wrapping a value-type program returns the value unchanged.
	cc := WithoutCombiner[floodMsg]{P: NewStreamingCC()}
	v := floodState{key: 4, hops: 2}
	if got := cc.CloneValue(v); got != any(v) {
		t.Errorf("CloneValue = %v, want %v", got, v)
	}
}

// quietProgram is a non-streaming program (nil values, immediate halt)
// used to provoke VerifyStreaming's no-value and no-oracle errors.
type quietProgram struct{}

func (quietProgram) Init(ctx *bsp.VertexContext[struct{}]) any                 { return nil }
func (quietProgram) Compute(ctx *bsp.VertexContext[struct{}], msgs []struct{}) { ctx.VoteToHalt() }

func pathEngine[M any](t *testing.T, prog bsp.Program[M]) *bsp.Engine {
	t.Helper()
	g := graph.NewUndirected(3)
	a, b, c := g.AddVertex(), g.AddVertex(), g.AddVertex()
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	e, err := bsp.NewEngine(g, partition.Hash(g, 2), prog, bsp.Config{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := e.RunUntilQuiescent(50); !done {
		t.Fatal("no quiescence")
	}
	return e
}

func TestVerifyStreamingFailureModes(t *testing.T) {
	cc := NewStreamingCC()
	e := pathEngine(t, cc)
	if err := VerifyStreaming(e, cc); err != nil {
		t.Fatalf("correct CC run rejected: %v", err)
	}
	// The same values read as SSSP distances from source 2 must diverge
	// (the flood is rooted at vertex 0, the oracle at vertex 2).
	if err := VerifyStreaming(e, NewStreamingSSSP(2)); err == nil || !strings.Contains(err.Error(), "sssp") {
		t.Errorf("mislabelled program not caught: %v", err)
	}
	// A program without an oracle must be rejected, not silently pass.
	if err := VerifyStreaming(e, quietProgram{}); err == nil || !strings.Contains(err.Error(), "no oracle") {
		t.Errorf("oracle-less program not rejected: %v", err)
	}

	// An engine holding non-flood values must fail the value check for
	// every streaming oracle.
	eq := pathEngine(t, quietProgram{})
	if err := VerifyStreaming(eq, NewStreamingCC()); err == nil || !strings.Contains(err.Error(), "no label") {
		t.Errorf("CC accepted foreign values: %v", err)
	}
	if err := VerifyStreaming(eq, NewStreamingSSSP(0)); err == nil || !strings.Contains(err.Error(), "no distance") {
		t.Errorf("SSSP accepted foreign values: %v", err)
	}
	if err := VerifyStreaming(eq, NewStreamingPageRank()); err == nil || !strings.Contains(err.Error(), "no rank") {
		t.Errorf("PageRank accepted foreign values: %v", err)
	}

	// WithoutCombiner unwraps before dispatch.
	ew := pathEngine(t, WithoutCombiner[floodMsg]{P: NewStreamingCC()})
	if err := VerifyStreaming(ew, WithoutCombiner[floodMsg]{P: NewStreamingCC()}); err != nil {
		t.Errorf("wrapped CC run rejected: %v", err)
	}
}

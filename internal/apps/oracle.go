package apps

import (
	"fmt"
	"math"

	"xdgp/internal/bsp"
	"xdgp/internal/graph"
)

// This file holds plain-Go from-scratch reference implementations (the
// ground truth the streaming programs are differentially tested against)
// and VerifyStreaming, which diffs a quiescent engine against them. They
// are exported so the experiments driver can oracle-check its runs, not
// just the test harness.

// OracleComponents recomputes connected components from scratch via
// union-find and returns every live vertex's component label: the minimum
// vertex ID of its component.
func OracleComponents(g *graph.Graph) map[graph.VertexID]graph.VertexID {
	parent := make(map[graph.VertexID]graph.VertexID)
	var find func(v graph.VertexID) graph.VertexID
	find = func(v graph.VertexID) graph.VertexID {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	g.ForEachEdge(func(u, v graph.VertexID) {
		ru, rv := find(u), find(v)
		if ru != rv {
			parent[ru] = rv
		}
	})
	minOf := make(map[graph.VertexID]graph.VertexID)
	g.ForEachVertex(func(v graph.VertexID) {
		r := find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	})
	labels := make(map[graph.VertexID]graph.VertexID)
	g.ForEachVertex(func(v graph.VertexID) {
		labels[v] = minOf[find(v)]
	})
	return labels
}

// OracleDistances recomputes shortest hop distances from src from scratch
// via BFS. Unreachable (and all, when src is not live) vertices are absent
// from the map.
func OracleDistances(g *graph.Graph, src graph.VertexID) map[graph.VertexID]int {
	dist := make(map[graph.VertexID]int)
	if !g.Has(src) {
		return dist
	}
	dist[src] = 0
	frontier := []graph.VertexID{src}
	for len(frontier) > 0 {
		var next []graph.VertexID
		for _, u := range frontier {
			du := dist[u]
			for _, w := range g.Neighbors(u) {
				if _, seen := dist[w]; !seen {
					dist[w] = du + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// OraclePageRank recomputes the unnormalised PageRank fixed point
//
//	rank(v) = (1 − d) + d · Σ_{u ∈ N(v)} rank(u) / deg(u)
//
// from scratch by dense Jacobi iteration until the largest per-vertex
// change drops below tol.
func OraclePageRank(g *graph.Graph, damping, tol float64) map[graph.VertexID]float64 {
	rank := make(map[graph.VertexID]float64)
	g.ForEachVertex(func(v graph.VertexID) { rank[v] = 1 - damping })
	for iter := 0; iter < 100000; iter++ {
		next := make(map[graph.VertexID]float64, len(rank))
		maxDelta := 0.0
		g.ForEachVertex(func(v graph.VertexID) {
			sum := 0.0
			for _, u := range g.Neighbors(v) {
				if d := g.Degree(u); d > 0 {
					sum += rank[u] / float64(d)
				}
			}
			r := (1 - damping) + damping*sum
			next[v] = r
			if d := math.Abs(r - rank[v]); d > maxDelta {
				maxDelta = d
			}
		})
		rank = next
		if maxDelta < tol {
			break
		}
	}
	return rank
}

// prOracleTol is how tightly VerifyStreaming requires streaming PageRank
// to match the from-scratch fixed point. The program's announcement
// tolerance leaves a residual of at most ~Tol·maxdeg/(1−d), far below
// this.
const prOracleTol = 1e-6

// VerifyStreaming diffs a quiescent engine's vertex values against the
// matching from-scratch oracle and returns the first divergence found.
// prog must be the program the engine runs: one of the streaming programs,
// optionally wrapped in WithoutCombiner.
func VerifyStreaming(e *bsp.Engine, prog any) error {
	if w, ok := prog.(interface{ unwrap() any }); ok {
		prog = w.unwrap()
	}
	g := e.Graph()
	var err error
	switch p := prog.(type) {
	case *StreamingCC:
		want := OracleComponents(g)
		g.ForEachVertex(func(v graph.VertexID) {
			if err != nil {
				return
			}
			got, ok := StreamingCCLabel(e.Value(v))
			if !ok {
				err = fmt.Errorf("cc: vertex %d has no label", v)
			} else if got != want[v] {
				err = fmt.Errorf("cc: vertex %d labelled %d, oracle says %d", v, got, want[v])
			}
		})
	case *StreamingSSSP:
		want := OracleDistances(g, p.Source)
		g.ForEachVertex(func(v graph.VertexID) {
			if err != nil {
				return
			}
			got, ok := StreamingSSSPDist(e.Value(v))
			if !ok {
				err = fmt.Errorf("sssp: vertex %d has no distance", v)
				return
			}
			d, reachable := want[v]
			switch {
			case reachable && got != float64(d):
				err = fmt.Errorf("sssp: vertex %d at distance %v, oracle says %d", v, got, d)
			case !reachable && !math.IsInf(got, 1):
				err = fmt.Errorf("sssp: vertex %d at distance %v, oracle says unreachable", v, got)
			}
		})
	case *StreamingPageRank:
		want := OraclePageRank(g, p.Damping, 1e-13)
		g.ForEachVertex(func(v graph.VertexID) {
			if err != nil {
				return
			}
			got, ok := StreamingRank(e.Value(v))
			if !ok {
				err = fmt.Errorf("pagerank: vertex %d has no rank", v)
			} else if math.Abs(got-want[v]) > prOracleTol {
				err = fmt.Errorf("pagerank: vertex %d ranked %.12g, oracle says %.12g (|Δ|=%.3g)",
					v, got, want[v], math.Abs(got-want[v]))
			}
		})
	default:
		return fmt.Errorf("apps: no oracle for program %T", prog)
	}
	return err
}

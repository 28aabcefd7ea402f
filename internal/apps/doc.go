// Package apps contains the vertex programs run on the BSP engine.
//
// The paper's evaluation workloads: the cardiac finite-element simulation
// (CardiacFEM, biomedical use case), TunkRank (online-social-network use
// case) and maximal-clique detection (MaxClique, mobile-network use case).
//
// Frozen-topology classics used by examples and tests: PageRank, SSSP and
// WCC.
//
// The streaming analytics suite, which keeps answers live while the graph
// churns by repairing incrementally from the engine's mutation notices
// instead of recomputing: StreamingCC (self-healing min-label components),
// StreamingSSSP (shortest paths with distance invalidation and bounded
// re-flood) and StreamingPageRank (fixed-point re-seeding only at mutated
// vertices and their frontier). Each is differentially tested against the
// from-scratch oracles in this package (OracleComponents, OracleDistances,
// OraclePageRank; VerifyStreaming diffs a quiescent engine against them).
//
// All programs follow the engine's Pregel-style API and declare their
// message type: float64 (PageRank, TunkRank, SSSP, Cardiac), int64 (WCC),
// or a small struct of the program's own (the streaming programs and
// MaxClique).
package apps

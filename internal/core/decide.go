package core

import (
	"xdgp/internal/activeset"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// Decider is the heuristic's rule per vertex (Section 2) and its quota
// grant, written once for the full, incremental and cluster steps of
// Partitioner and for the BSP-side service in internal/adaptive. An
// iteration is Begin, then Decide on each shard, then Grant:
//
//   - Begin keys the iteration's draws and turns the caller's capacity
//     view, a free-capacity vector, into the per-pair quotas
//     Q(i,j) = ⌊max(free_j, 0)/(k−1)⌋ (Section 2.2).
//   - Decide runs the rule on a shard's vertices: the willingness coin,
//     the plurality partitions of Γ(v) (Scorer), shuffled and queued as a
//     request. It reads the graph, the assignment and the quotas only, so
//     shards decide concurrently.
//   - Grant claims the requests row by row (source partition i). A claim
//     spends only row i's quota, so the granted set is that of any visit
//     order that is ascending within each row.
//
// Set the exported fields before Begin.
type Decider struct {
	S             float64 // willingness to move
	Seed          int64   // keys the per-vertex draws (draw.go)
	Incremental   bool    // drain a frontier (incremental.go)
	BalanceEdges  bool    // a request weighs the vertex's degree, not 1
	DisableQuotas bool    // grant every request its first destination
	// Drain holds per-partition hot-spot drain odds, or nil: a vertex of
	// partition j that prefers to stay requests the best other partitions
	// with probability Drain[j].
	Drain []float64

	g     *graph.Graph
	asn   *partition.Assignment
	key   DrawKey
	quota [][]int // Q(i,j), spent by Grant
	col   []int   // Q(·,j) at Begin, the hard-denial bound
	moves []Move
	keeps [][]graph.VertexID
}

// Move is one granted migration.
type Move struct {
	V        graph.VertexID
	From, To partition.ID
}

// Begin starts iteration iter over g and asn, with free[j] the free
// capacity of partition j.
func (d *Decider) Begin(g *graph.Graph, asn *partition.Assignment, iter int, free []int) {
	d.g, d.asn = g, asn
	d.key = IterationDraws(d.Seed, iter)
	k := len(free)
	if len(d.quota) != k {
		d.quota, d.col = make([][]int, k), make([]int, k)
		for i := range d.quota {
			d.quota[i] = make([]int, k)
		}
	}
	for j, f := range free {
		q := max(f, 0)
		if k > 1 {
			q /= k - 1
		}
		d.col[j] = q
		for i := range d.quota {
			d.quota[i][j] = q
		}
	}
}

// Quota returns destination dst's per-pair quota at Begin.
func (d *Decider) Quota(dst partition.ID) int { return d.col[dst] }

// Decide fills dec with shard s of n's share of the iteration: its range
// of the vertex slots, or, when Incremental, of the sorted frontier.
func (d *Decider) Decide(sc *Scorer, dec *ShardDecision, s, n int, frontier []graph.VertexID) {
	k := len(d.col)
	dec.reset(k)
	if k <= 1 {
		return // single partition: nothing can move
	}
	if d.Incremental {
		lo, hi := graph.ShardRange(s, n, len(frontier))
		dec.Examined = hi - lo
		for _, v := range frontier[lo:hi] {
			d.decide(sc, dec, v)
		}
		return
	}
	lo, hi := graph.ShardRange(s, n, d.g.NumSlots())
	examined := 0
	for id := lo; id < hi; id++ {
		if v := graph.VertexID(id); d.g.Has(v) {
			examined++
			d.decide(sc, dec, v)
		}
	}
	dec.Examined = examined
}

// decide evaluates vertex v and, when incremental, sorts it for the
// barrier: kept on the frontier (unwilling, or requesting), settled
// (prefers to stay) or parked (hard-denied: no destination's quota at
// Begin admits it, whatever the competition).
func (d *Decider) decide(sc *Scorer, dec *ShardDecision, v graph.VertexID) {
	inc := d.Incremental
	r := d.key.Vertex(v)
	if d.S < 1 && r.Float64() >= d.S {
		if inc {
			dec.Keeps = append(dec.Keeps, v) // unwilling: stays scheduled
		}
		return
	}
	cur := d.asn.Of(v)
	best := sc.Best(d.g, d.asn, v, cur)
	if best == nil {
		// Settled, unless cur's drain coin sends v elsewhere.
		if d.Drain == nil || d.Drain[cur] == 0 || r.Float64() >= d.Drain[cur] {
			return
		}
		if best = sc.BestOther(d.g, d.asn, v, cur); best == nil {
			return
		}
	}
	dec.Requested++
	w := 1
	if d.BalanceEdges {
		w = max(d.g.Degree(v), 1)
	}
	if inc && !d.DisableQuotas && d.hardDenied(best, w) {
		off := int32(len(dec.ParkDests))
		dec.ParkDests = append(dec.ParkDests, best...)
		dec.Parks = append(dec.Parks, ClusterPark{V: v, Off: off, N: int32(len(best))})
		return
	}
	r.Shuffle(best)
	off := int32(len(dec.Cands))
	dec.Cands = append(dec.Cands, best...)
	dec.Reqs[cur] = append(dec.Reqs[cur], ClusterReq{V: v, Off: off, N: int32(len(best)), W: int32(w)})
	if inc {
		// A mover re-settles after its move applies at the barrier; a
		// competition-denied requester retries next iteration.
		dec.Keeps = append(dec.Keeps, v)
	}
}

// hardDenied reports whether no destination in dsts admits weight w even
// without competition.
func (d *Decider) hardDenied(dsts []partition.ID, w int) bool {
	for _, dst := range dsts {
		if d.col[dst] >= w {
			return false
		}
	}
	return true
}

// Grant claims the decisions' requests and returns the granted moves,
// valid until the next Grant. It walks the rows, within a row the
// decisions in shard order and each decision's requests in slot order.
// Shards hold contiguous ascending ranges, so the moves, in row then
// slot order, are the same for every shard count.
//
// When active is the frontier the decisions drained, Grant then runs the
// barrier: the prepared vertices settle but the keeps, whose lists
// concatenate in shard order to an ascending frontier, and the
// hard-denied requesters park.
func (d *Decider) Grant(decisions []*ShardDecision, active *activeset.Set) []Move {
	d.moves = d.moves[:0]
	for i := range d.quota {
		for _, dec := range decisions {
			if i < len(dec.Reqs) {
				for _, r := range dec.Reqs[i] {
					d.claim(r.V, partition.ID(i), dec.Cands[r.Off:r.Off+r.N], int(r.W))
				}
			}
		}
	}
	examined := 0
	d.keeps = d.keeps[:0]
	for _, dec := range decisions {
		examined += dec.Examined
		d.keeps = append(d.keeps, dec.Keeps)
	}
	if active == nil || examined == 0 {
		return d.moves
	}
	active.Rebuild(d.keeps...)
	for _, dec := range decisions {
		for _, pk := range dec.Parks {
			active.Park(pk.V, dec.ParkDests[pk.Off:pk.Off+pk.N])
		}
	}
	return d.moves
}

// claim grants v's request of weight w towards the first destination in
// dsts whose quota Q(cur, dst) still covers w, and spends it. No quota
// left anywhere means stay (worst-case capacity rule).
func (d *Decider) claim(v graph.VertexID, cur partition.ID, dsts []partition.ID, w int) {
	for _, dst := range dsts {
		if !d.DisableQuotas {
			if d.quota[cur][dst] < w {
				continue
			}
			d.quota[cur][dst] -= w
		}
		d.moves = append(d.moves, Move{V: v, From: cur, To: dst})
		return
	}
}

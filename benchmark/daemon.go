package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
	"xdgp/internal/server"
	"xdgp/internal/snapshot"
)

// daemonSize fixes the input size of the two daemon workloads.
type daemonSize struct {
	n          int // BA(n, 3) vertices
	perTick    int // mutations per tick
	frame      int // mutations per binary frame
	ticks      int // steady-churn: ticks per round
	reads      int // steady-churn: reads per tick
	shiftEvery int // steady-churn: ticks between hot-set shifts
	setups     int // extra set-ups per round, and untimed warm-up set-ups per run
	minRounds  int // rounds run even when the time budget is spent
}

const (
	daemonK       = 9
	zipfS         = 1.2
	workloadW     = 4
	convergeSteps = 5000
)

// daemonInput is one daemon workload's generated input: the tick batches,
// their pre-encoded wire frames, and (steady-churn) the reads after each
// tick.
type daemonInput struct {
	ticks     []graph.Batch
	frames    [][][]byte
	sizes     [][]int
	reads     [][]graph.VertexID
	mutations int
	hash      uint64
}

func newDaemonInput(ticks []graph.Batch, reads [][]graph.VertexID, frame int, base ...graph.Batch) (*daemonInput, error) {
	in := &daemonInput{ticks: ticks, reads: reads}
	var err error
	if in.frames, err = encodeFrames(ticks, frame); err != nil {
		return nil, err
	}
	h := newHasher()
	h.batches(base...)
	h.batches(ticks...)
	h.vertices(reads...)
	in.hash = h.sum()
	in.sizes = make([][]int, len(ticks))
	for t, b := range ticks {
		in.mutations += len(b)
		for _, c := range chunk(b, frame) {
			in.sizes[t] = append(in.sizes[t], len(c))
		}
	}
	return in, nil
}

// roundOut is what one lock-step pass over the input measured.
type roundOut struct {
	wall       time.Duration // first frame written → last TickNow returned
	cpu        time.Duration
	freshPrim  []float64 // ms per tick: last ACK → TickNow returned
	freshRep   []float64 // ms per tick: last ACK → replica serves the epoch
	reads      []float64 // ms per read
	sendAck    []float64 // ms per tick: first frame written → last ACK
	catchup    []float64 // ms per tick: TickNow returned → replica serves the epoch
	epochs     uint64
	migrations int
}

// lockstep drives every tick of in through h one at a time: write the
// batch's frames and await the ACKs, TickNow, wait for the replica to
// serve the new epoch, then issue the tick's reads. Failed operations are
// counted in rep; tr (nil when untraced) receives one span per boundary
// call.
func lockstep(h *host, in *daemonInput, tr *tracer, rep *report) roundOut {
	var out roundOut
	var first, last time.Time
	epoch0 := h.srv.Routing().Epoch
	cpu0 := cpuTime()
	for t, batch := range in.ticks {
		root := tr.begin("tick", -1, t)
		t0 := time.Now()
		if t == 0 {
			first = t0
		}
		err := h.send(in.frames[t], in.sizes[t])
		rep.op(len(in.frames[t]), err, "tick %d send", t)
		tAck := time.Now()
		res := h.srv.TickNow()
		tPrim := time.Now()
		last = tPrim
		if res.BatchSize != len(batch) {
			rep.op(1, fmt.Errorf("absorbed %d of %d mutations", res.BatchSize, len(batch)), "tick %d", t)
		} else {
			rep.op(1, nil, "")
		}
		epoch := h.srv.Routing().Epoch
		notReady := h.notReady
		err = h.waitReplica(epoch, true)
		if err == nil && h.notReady > notReady {
			err = fmt.Errorf("replica without a servable table for %d polls", h.notReady-notReady)
		}
		rep.op(1, err, "tick %d replica", t)
		tRep := time.Now()

		out.freshPrim = append(out.freshPrim, ms(tPrim.Sub(tAck)))
		out.freshRep = append(out.freshRep, ms(tRep.Sub(tAck)))
		out.sendAck = append(out.sendAck, ms(tAck.Sub(t0)))
		out.catchup = append(out.catchup, ms(tRep.Sub(tPrim)))
		out.migrations += res.Migrations

		tr.add("server.send_ack", root, t, t0, tAck)
		tr.add("server.tick", root, t, tAck, tPrim)
		tr.add("replica.catchup", root, t, tPrim, tRep)
		var reads []graph.VertexID
		if in.reads != nil {
			reads = in.reads[t]
		}
		table := h.srv.Routing().Table
		for _, v := range reads {
			r0 := time.Now()
			p, err := h.read(v)
			r1 := time.Now()
			if err == nil && p != int64(table.Of(v)) {
				err = fmt.Errorf("vertex %d: read partition %d, table says %d", v, p, table.Of(v))
			}
			rep.op(1, err, "tick %d read", t)
			out.reads = append(out.reads, ms(r1.Sub(r0)))
			tr.add("server.read", root, t, r0, r1)
		}
		tr.end(root)
	}
	out.wall = last.Sub(first)
	out.cpu = cpuTime() - cpu0
	out.epochs = h.srv.Routing().Epoch - epoch0
	return out
}

// checkReplica is the end-of-round gate shared by both daemon workloads:
// the replica serves the primary's final epoch with an identical table,
// and it never resynced.
func checkReplica(h *host, rep *report) uint64 {
	primary := h.srv.Routing()
	if err := h.waitReplica(primary.Epoch, true); err != nil {
		rep.gate(false, "replica final epoch: %v", err)
		return 0
	}
	f, e, _ := h.rep.Snapshot()
	ph, rh := tableHash(primary.Table), tableHash(f)
	rep.gate(e == primary.Epoch && ph == rh, "replica table at epoch %d (hash %016x) equals primary at epoch %d (hash %016x)", e, rh, primary.Epoch, ph)
	st := h.rep.Stats()
	rep.gate(st.Resyncs == 0 && st.Bootstraps == 1, "replica resyncs %d, bootstraps %d (want 0, 1)", st.Resyncs, st.Bootstraps)
	return ph
}

// bulkLoad is the bulk-load workload: an empty daemon absorbs BA(n, 3) in
// growth order at a fixed number of mutations per tick, with no reads.
func bulkLoad(sz daemonSize, o options) *report {
	rep := newReport("bulk-load")
	edges := baGrowth(sz.n, 3, o.seed)
	in, err := newDaemonInput(chunk(edges, sz.perTick), nil, sz.frame)
	if err != nil {
		rep.gate(false, "encode input: %v", err)
		return rep
	}
	rep.notef("input: BA(%d, 3) = %d edge adds in %d ticks of %d, frames of %d; input hash %016x",
		sz.n, len(edges), len(in.ticks), sz.perTick, sz.frame, in.hash)
	rep.inputHash = in.hash
	edges = nil

	cfg := server.DefaultConfig(daemonK, o.seed)
	cfg.Parallelism = 2
	cfg.TickEvery = 0
	setup := func(tr *tracer) (*host, error) {
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		return startHost(srv)
	}
	gates := func(h *host) (uint64, float64) {
		st := h.srv.Stats()
		rep.gate(st.Vertices == sz.n && st.Edges == baEdges(sz.n, 3),
			"final graph %d vertices / %d edges, generator made %d / %d", st.Vertices, st.Edges, sz.n, baEdges(sz.n, 3))
		caps := partition.UniformCapacities(st.Vertices, daemonK, cfg.CapacityFactor)
		within := true
		for i, s := range st.PartitionSizes {
			within = within && s <= caps[i]
		}
		rep.gate(within, "partition sizes %v within capacities %v", st.PartitionSizes, caps)
		return checkReplica(h, rep), st.CutRatio
	}
	replay := func(tr *tracer, want uint64) {
		p, err := core.New(graph.NewUndirected(0), partition.NewAssignment(0, daemonK), coreConfig(cfg))
		if err != nil {
			rep.gate(false, "replay partitioner: %v", err)
			return
		}
		layerReplay(p, in, cfg, tr, want, rep)
	}
	runDaemon(rep, o, sz, in, daemonSpec{setup: setup, gates: gates, replay: replay})
	return rep
}

// steadyChurnWorkload is the steady-churn workload: a converged BA(n, 3)
// daemon restored from a snapshot absorbs stationary edge churn, with
// Zipf reads after every tick and a hot set that shifts.
func steadyChurnWorkload(sz daemonSize, o options) *report {
	rep := newReport("steady-churn")
	baseEdges := baGrowth(sz.n, 3, o.seed)
	shadow := buildGraph(sz.n, baseEdges)
	churn := steadyChurn(shadow, sz.ticks, sz.perTick, o.seed+1)
	shadow = nil
	base := buildGraph(sz.n, baseEdges)
	reads := zipfReads(base, sz.ticks, sz.reads, sz.shiftEvery, zipfS, o.seed+2)
	in, err := newDaemonInput(churn, reads, sz.frame, baseEdges)
	if err != nil {
		rep.gate(false, "encode input: %v", err)
		return rep
	}
	rep.inputHash = in.hash
	rep.notef("input: BA(%d, 3) base, %d ticks × %d churn mutations, %d Zipf(%.1f) reads per tick, hot set shifts every %d ticks; input hash %016x",
		sz.n, sz.ticks, sz.perTick, sz.reads, zipfS, sz.shiftEvery, in.hash)
	baseEdges = nil

	cfg := server.DefaultConfig(daemonK, o.seed)
	cfg.TickEvery = 0
	cfg.WorkloadWeight = workloadW
	cfg.HeatSample = 1
	ccfg := coreConfig(cfg)
	ccfg.MaxIterations = convergeSteps
	path := filepath.Join(o.out, fmt.Sprintf("steady-churn-%d-%d.snap", os.Getpid(), o.seed))
	defer os.Remove(path)

	// Set-up is the whole path to a serving daemon with a converged
	// partitioning: converge the base graph in core, checkpoint it to disk
	// and read it back, restore a daemon from it and bootstrap the replica.
	var g *graph.Graph
	var snapMB float64
	spec := daemonSpec{prep: func() { g = base.Clone() }, release: func() { base = nil }}
	spec.setup = func(tr *tracer) (*host, error) {
		t0 := time.Now()
		p, err := core.New(g, partition.Hash(g, daemonK), ccfg)
		if err != nil {
			return nil, err
		}
		if res := p.Run(); !res.Converged {
			return nil, fmt.Errorf("base partitioning did not converge in %d iterations", res.Iterations)
		}
		t1 := time.Now()
		snap, err := snapshot.Capture(p, ccfg, snapshot.Meta{})
		if err != nil {
			return nil, err
		}
		g = nil
		t2 := time.Now()
		if err := snapshot.Save(path, snap); err != nil {
			return nil, err
		}
		t3 := time.Now()
		loaded, err := snapshot.Load(path)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		srv, err := server.Restore(cfg, loaded)
		if err != nil {
			return nil, err
		}
		t5 := time.Now()
		h, err := startHost(srv)
		if err != nil {
			return nil, err
		}
		t6 := time.Now()
		root := tr.add("setup", -1, -1, t0, t6)
		tr.add("core.converge", root, -1, t0, t1)
		tr.add("snapshot.capture", root, -1, t1, t2)
		tr.add("snapshot.write", root, -1, t2, t3)
		tr.add("snapshot.read", root, -1, t3, t4)
		tr.add("server.restore", root, -1, t4, t5)
		tr.add("replica.bootstrap", root, -1, t5, t6)
		if fi, err := os.Stat(path); err == nil {
			snapMB = float64(fi.Size()) / (1 << 20)
		}
		return h, nil
	}
	spec.gates = func(h *host) (uint64, float64) {
		st := h.srv.Stats()
		rep.gate(st.Vertices == sz.n, "final graph %d vertices, base had %d", st.Vertices, sz.n)
		return checkReplica(h, rep), st.CutRatio
	}
	spec.replay = func(tr *tracer, want uint64) {
		spans := tr.byName()
		for name, metric := range map[string]string{
			"snapshot.capture": "snapshot.capture_ms", "snapshot.write": "snapshot.write_ms",
			"snapshot.read": "snapshot.read_ms", "server.restore": "snapshot.restore_ms",
		} {
			rep.layer(metric, "ms", median(spans[name]))
		}
		rep.layer("core.converge_s", "s", median(spans["core.converge"])/1e3)
		rep.layer("snapshot.mb", "MiB", snapMB)
		if p := mustRestore(path, rep); p != nil {
			layerReplay(p, in, cfg, tr, want, rep)
		}
	}
	runDaemon(rep, o, sz, in, spec)
	return rep
}

// mustRestore loads a fresh partitioner from the snapshot file, recording
// a failed gate (and returning nil) on error.
func mustRestore(path string, rep *report) *core.Partitioner {
	s, err := snapshot.Load(path)
	if err == nil {
		var p *core.Partitioner
		if p, err = s.NewPartitioner(); err == nil {
			return p
		}
	}
	rep.gate(false, "replay restore: %v", err)
	return nil
}

// coreConfig is the core.Config a daemon with cfg runs (server.Config
// derives it the same way for a single-process daemon).
func coreConfig(cfg server.Config) core.Config {
	cc := core.DefaultConfig(cfg.K, cfg.Seed)
	cc.S = cfg.S
	cc.CapacityFactor = cfg.CapacityFactor
	cc.Parallelism = cfg.Parallelism
	cc.Incremental = cfg.Incremental
	cc.ConvergenceWindow = cfg.ConvergenceWindow
	cc.WorkloadWeight = cfg.WorkloadWeight
	cc.RecordEvery = 0
	cc.MaxIterations = math.MaxInt32
	return cc
}

// daemonSpec is what differs between the daemon workloads.
type daemonSpec struct {
	prep    func()                        // untimed, before each set-up
	setup   func(*tracer) (*host, error)  // timed as setup_s
	gates   func(*host) (uint64, float64) // end-of-round checks; placement hash and cut ratio
	replay  func(*tracer, uint64)         // traced runs: layer replay against the placement hash
	release func()                        // drops the workload's own input buffers
}

// runDaemon runs whole rounds — set-up, lock-step over the full input,
// gates — until the time budget is spent (at least sz.minRounds). Every
// round replays the same input from the same start state, so its
// placement hash and quality counts must repeat exactly; that is gated.
// With tracing, odd rounds are traced and even ones are not, giving the
// tracing overhead on the same seed, and a layer replay follows.
func runDaemon(rep *report, o options, sz daemonSize, in *daemonInput, spec daemonSpec) {

	var tr *tracer
	if o.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	plain, traced := &daemonAgg{}, &daemonAgg{}
	var h *host
	defer func() {
		if h != nil {
			h.stop()
		}
	}()
	timedSetup := func(agg *daemonAgg, t *tracer) bool {
		if h != nil {
			h.stop()
			h = nil
		}
		if spec.prep != nil {
			spec.prep()
		}
		// Start every set-up from a collected heap, so garbage left by
		// input generation or the previous round is not charged to it.
		runtime.GC()
		t0 := time.Now()
		var err error
		h, err = spec.setup(t)
		d := time.Since(t0)
		rep.op(1, err, "setup")
		if err != nil {
			return false
		}
		agg.setup = append(agg.setup, d.Seconds())
		agg.bootstrap = append(agg.bootstrap, h.bootstrap.Seconds())
		return true
	}
	// Warm-up set-ups, not timed: first-use costs (fresh pages, lazily
	// started runtime and network machinery) would otherwise land on the
	// first samples of a metric that is only milliseconds long.
	for i := 0; i < sz.setups; i++ {
		if !timedSetup(&daemonAgg{}, nil) {
			return
		}
	}
	minRounds := sz.minRounds
	if o.trace {
		minRounds *= 2
	}
	start := time.Now()
	var hash uint64
	var cut0 float64
	var migr0 int
	for r := 0; r < minRounds || roundFits(start, r, o.seconds); r++ {
		agg, t := plain, (*tracer)(nil)
		if o.trace && r%2 == 1 {
			agg, t = traced, tr
		}
		for i := 0; i < sz.setups; i++ {
			if !timedSetup(agg, t) {
				return
			}
		}
		if !timedSetup(agg, t) {
			return
		}
		out := lockstep(h, in, t, rep)
		if !rep.correct {
			return
		}
		hr, cut := spec.gates(h)
		agg.add(out, cut)
		if r == 0 {
			hash, cut0, migr0 = hr, cut, out.migrations
			rep.notef("placement hash %016x", hash)
		}
		rep.gate(hr == hash && cut == cut0 && out.migrations == migr0,
			"round %d placement hash %016x, cut ratio %v, migrations %d equal round 0's %016x, %v, %d",
			r, hr, cut, out.migrations, hash, cut0, migr0)
		if !rep.correct {
			return
		}
	}
	rep.placementHash = hash
	rep.rounds = len(plain.wall) + len(traced.wall)

	// Live heap with the system still up. An untraced run first drops
	// every input buffer of its own; a traced run still needs them for the
	// replay, so its overhead figure compares like with like.
	mutations, withReads := in.mutations, in.reads != nil
	if !o.trace {
		in.ticks, in.frames, in.reads = nil, nil, nil
		if spec.release != nil {
			spec.release()
		}
	}
	rep.notef("setup samples (s): %.4g", plain.setup)
	rep.notef("round walls (s): %.4g", plain.wall)
	plain.report(rep, mutations, true, liveHeapMB(), rep.setE2E)
	if !o.trace {
		return
	}
	traced.report(rep, mutations, false, liveHeapMB(), func(name, unit string, v float64) {
		if base, ok := rep.e2e[name]; ok {
			rep.layer("trace.overhead."+name, unit, v-base.Value)
		}
	})
	traced.layers(rep, withReads)
	h.stop()
	h = nil
	spec.replay(tr, hash)
}

// roundFits reports whether another round, as long as the mean of the r
// rounds run since start, still ends within the budget of seconds.
func roundFits(start time.Time, r int, seconds float64) bool {
	el := time.Since(start).Seconds()
	return el+el/float64(max(r, 1)) <= seconds
}

// daemonAgg pools the measurements of several rounds.
type daemonAgg struct {
	setup, bootstrap, wall, cpu                  []float64
	freshPrim, freshRep, reads, sendAck, catchup []float64
	readP99                                      []float64 // per round
	epochs                                       uint64
	cut                                          float64 // identical in every round (gated)
	migrations                                   int     // identical in every round (gated)
}

func (a *daemonAgg) add(o roundOut, cut float64) {
	a.wall = append(a.wall, o.wall.Seconds())
	a.cpu = append(a.cpu, o.cpu.Seconds())
	a.cut, a.migrations = cut, o.migrations
	a.freshPrim = append(a.freshPrim, o.freshPrim...)
	a.freshRep = append(a.freshRep, o.freshRep...)
	a.reads = append(a.reads, o.reads...)
	if v, _, err := percentile(o.reads, 0.99); err == nil {
		a.readP99 = append(a.readP99, v)
	}
	a.sendAck = append(a.sendAck, o.sendAck...)
	a.catchup = append(a.catchup, o.catchup...)
	a.epochs += o.epochs
}

// report emits the end-to-end metrics through set. Metrics whose samples
// do not suffice for the percentile are refused (a failed gate), never
// reported from too few samples.
func (a *daemonAgg) report(rep *report, mutations int, note bool, heapMB float64, set func(name, unit string, v float64)) {
	set("setup_s", "s", median(a.setup))
	set("mut_per_s", "mut/s", float64(mutations)/median(a.wall))
	// A tick is fresh once the last stage of the pipeline, the replica,
	// serves its epoch.
	v, n, err := percentile(a.freshRep, 0.5)
	rep.gate(err == nil, "fresh_p50_ms over %d samples: %v", n, err)
	if err == nil {
		set("fresh_p50_ms", "ms", v)
		if note {
			rep.notef("fresh_p50_ms rests on %d samples", n)
		}
	}
	set("cut_ratio", "ratio", a.cut)
	set("migrations_per_kmut", "count", float64(a.migrations)/(float64(mutations)/1000))
	set("live_heap_mb", "MiB", heapMB)
	set("cpu_s", "s", median(a.cpu))
}

// layers emits the boundary-span metrics of the traced rounds.
func (a *daemonAgg) layers(rep *report, withReads bool) {
	p := func(name string, xs []float64, q float64) {
		if v, _, err := percentile(xs, q); err == nil {
			rep.layer(name, "ms", v)
		} else {
			rep.notef("%s not reported: %v", name, err)
		}
	}
	p("server.send_ack_ms_p50", a.sendAck, 0.5)
	// A tick's freshness on the primary is exactly the TickNow call.
	p("server.tick_ms_p50", a.freshPrim, 0.5)
	p("server.tick_ms_p90", a.freshPrim, 0.9)
	p("replica.catchup_ms_p50", a.catchup, 0.5)
	p("replica.catchup_ms_p90", a.catchup, 0.9)
	if withReads {
		p("server.read_ms_p50", a.reads, 0.5)
		// Each round holds tens of thousands of reads, so the read tail is
		// taken per round and summarised by its median over rounds: one
		// disturbed round then cannot move it.
		if len(a.readP99) == len(a.wall) {
			rep.layer("server.read_ms_p99", "ms", median(a.readP99))
		} else {
			rep.notef("server.read_ms_p99 not reported: a round had too few reads for a p99")
		}
	}
	rep.layer("server.epochs_per_tick", "count", float64(a.epochs)/float64(len(a.freshPrim)))
	rep.layer("replica.bootstrap_s", "s", median(a.bootstrap))
	rep.layer("replica.resyncs", "count", 0) // any resync fails the run in checkReplica
}

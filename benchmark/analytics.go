package main

import (
	"fmt"
	"runtime"
	"time"

	"xdgp/internal/adaptive"
	"xdgp/internal/apps"
	"xdgp/internal/bsp"
	"xdgp/internal/gen"
	"xdgp/internal/graph"
	"xdgp/internal/partition"
)

// analyticsSize fixes the input size of the analytics-churn workload.
type analyticsSize struct {
	n         int     // BA(n, 3) vertices
	batches   int     // churn batches
	rate      float64 // rewired share of the edges per batch
	warm      int     // superstep cap of the warm-up
	drain     int     // superstep cap of the churn window and of settling
	instances int     // inputs generated per run, see analyticsChurn
	minRounds int     // rounds run even when the time budget is spent
}

const analyticsK = 8

// timedPlanner wraps the adaptive service as the engine's Repartitioner
// and, when traced, records every Plan as a child span of the superstep
// that called it, with the per-partition cost skew the plan saw.
type timedPlanner struct {
	svc    *adaptive.Service
	tr     *tracer
	parent int
	step   int
	plans  []float64
	skew   []float64
}

func (p *timedPlanner) Plan(v *bsp.View) []bsp.MigrationRequest {
	if p.tr == nil {
		return p.svc.Plan(v)
	}
	t0 := time.Now()
	reqs := p.svc.Plan(v)
	t1 := time.Now()
	p.tr.add("adaptive.plan", p.parent, p.step, t0, t1)
	p.plans = append(p.plans, ms(t1.Sub(t0)))
	costs := v.WorkerCosts()
	var sum, top float64
	for _, c := range costs {
		sum += c
		top = max(top, c)
	}
	if sum > 0 {
		p.skew = append(p.skew, top*float64(len(costs))/sum)
	}
	return reqs
}

// analyticsRound is one round's measurements.
type analyticsRound struct {
	setup, wall, cpu                  time.Duration
	local, remote, granted, mutations int
	requested, examined, supersteps   int
	active                            int
	simTime, cut, bytesPerEdge        float64
	compactions                       uint64
	hash                              uint64
	stepMs, plans, skew               []float64
	fresh                             []float64 // ms per batch: absorbed → next quiescent
	instance                          int
}

// instanceStride separates the generator seeds of one run's instances.
const instanceStride = 1_000_003

// analyticsInput is one generated instance: a base graph, its churn
// stream, and the seed the engine and the adaptive service run with.
type analyticsInput struct {
	base  *graph.Graph
	churn []graph.Batch
	seed  int64
	muts  int
}

// analyticsChurn is the analytics-churn workload: streaming PageRank on
// the BSP engine over BA(n, 3), hash-placed on k=8 partitions with an
// incremental adaptive service, while the analytics experiment's churn
// stream (1% edge rewires per batch) replays to quiescence.
//
// How much work a churn window takes depends on the graph a seed draws,
// more than on a daemon workload's input. So one run generates several
// instances from its seed, cycles rounds through them, and reports the
// mean over instances of each instance's median: seed-to-seed spread
// shrinks with the instance count.
func analyticsChurn(sz analyticsSize, o options) *report {
	rep := newReport("analytics-churn")
	inputs := make([]analyticsInput, sz.instances)
	h := newHasher()
	for i := range inputs {
		seed := o.seed + int64(i)*instanceStride
		base := gen.BarabasiAlbert(sz.n, 3, seed)
		churn := rewireChurn(base.Clone(), sz.rate, sz.batches, seed+77)
		base.ForEachEdge(func(u, v graph.VertexID) { h.ints(int64(u), int64(v)) })
		h.batches(churn...)
		in := analyticsInput{base: base, churn: churn, seed: seed}
		for _, b := range churn {
			in.muts += len(b)
		}
		inputs[i] = in
	}
	rep.inputHash = h.sum()
	rep.notef("input: %d instances of BA(%d, 3), each with %d churn batches rewiring %.1f%% of the edges (%d mutations in the first); input hash %016x",
		sz.instances, sz.n, sz.batches, sz.rate*100, inputs[0].muts, rep.inputHash)

	var tr *tracer
	if o.trace {
		tr = newTracer()
		rep.tracer = tr
	}
	var plain, traced []analyticsRound
	first := make([]*analyticsRound, sz.instances)
	var last *bsp.Engine
	// Every instance runs at least once untraced (and once traced): with
	// an odd instance count, alternating rounds reach all of them.
	minRounds := max(sz.minRounds, sz.instances)
	if o.trace {
		minRounds *= 2
	}
	start := time.Now()
	for r := 0; r < minRounds || roundFits(start, r, o.seconds); r++ {
		var t *tracer
		if o.trace && r%2 == 1 {
			t = tr
		}
		last = nil
		k := r % sz.instances
		in := inputs[k]
		res, e, err := analyticsRun(in.base.Clone(), in.churn, sz, in.seed, t)
		rep.op(len(in.churn)+1, err, "round %d", r)
		if err != nil {
			return rep
		}
		res.instance, res.mutations = k, in.muts
		if t != nil {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		if first[k] == nil {
			first[k] = &res
		}
		f := first[k]
		rep.gate(res.hash == f.hash && res.remote == f.remote && res.granted == f.granted,
			"round %d (instance %d) placement hash %016x, remote msgs %d, grants %d equal the instance's first round's %016x, %d, %d",
			r, k, res.hash, res.remote, res.granted, f.hash, f.remote, f.granted)
		if !rep.correct {
			return rep
		}
		last = e
	}
	h = newHasher()
	for _, f := range first {
		h.ints(int64(f.hash))
	}
	rep.placementHash = h.sum()
	rep.rounds = len(plain) + len(traced)
	rep.notef("placement hash %016x (over the instances' final tables)", rep.placementHash)

	inputs = nil
	heap := liveHeapMB()
	emit := func(rs []analyticsRound, heap float64, set func(name, unit string, v float64)) {
		var fresh []float64
		for _, r := range rs {
			fresh = append(fresh, r.fresh...)
		}
		set("setup_s", "s", perInstance(rs, func(r analyticsRound) float64 { return r.setup.Seconds() }))
		set("mut_per_s", "mut/s", perInstance(rs, func(r analyticsRound) float64 { return float64(r.mutations) / r.wall.Seconds() }))
		v, n, err := percentile(fresh, 0.5)
		rep.gate(err == nil, "fresh_p50_ms over %d samples: %v", n, err)
		if err == nil {
			set("fresh_p50_ms", "ms", v)
		}
		set("cut_ratio", "ratio", perInstance(rs, func(r analyticsRound) float64 { return r.cut }))
		set("migrations_per_kmut", "count", perInstance(rs, func(r analyticsRound) float64 {
			return float64(r.granted) / (float64(r.mutations) / 1000)
		}))
		set("live_heap_mb", "MiB", heap)
		set("cpu_s", "s", perInstance(rs, func(r analyticsRound) float64 { return r.cpu.Seconds() }))
	}
	runtime.KeepAlive(last)
	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
	}
	rep.notef("churn-window walls (s), instances in turn: %.4g", walls)
	emit(plain, heap, rep.setE2E)
	// Remote messages are counted per round and identical in every round
	// of an instance (gated), so the share is known untraced too.
	rep.layer("bsp.remote_msg_frac", "ratio", perInstance(plain, func(r analyticsRound) float64 {
		return float64(r.remote) / float64(r.local+r.remote)
	}))
	rep.layer("graph.compactions", "count", perInstance(plain, func(r analyticsRound) float64 { return float64(r.compactions) }))
	rep.layer("graph.bytes_per_edge", "B", perInstance(plain, func(r analyticsRound) float64 { return r.bytesPerEdge }))
	if !o.trace {
		return rep
	}
	emit(traced, heap, func(name, unit string, v float64) {
		rep.layer("trace.overhead."+name, unit, v-rep.e2e[name].Value)
	})
	var stepMs, plans, skew []float64
	for _, r := range traced {
		stepMs = append(stepMs, r.stepMs...)
		plans = append(plans, r.plans...)
		skew = append(skew, r.skew...)
	}
	// The churn window's supersteps are too few for a p99 with ten samples
	// beyond it, so the tail is reported as p90.
	for name, q := range map[string]float64{"bsp.superstep_ms_p50": 0.5, "bsp.superstep_ms_p90": 0.9} {
		if v, _, err := percentile(stepMs, q); err == nil {
			rep.layer(name, "ms", v)
		} else {
			rep.notef("%s not reported: %v", name, err)
		}
	}
	count := func(name, unit string, f func(analyticsRound) float64) {
		rep.layer(name, unit, perInstance(traced, f))
	}
	count("bsp.supersteps", "count", func(r analyticsRound) float64 { return float64(r.supersteps) })
	count("bsp.msgs_per_superstep", "count", func(r analyticsRound) float64 { return float64(r.local+r.remote) / float64(r.supersteps) })
	count("bsp.active_per_superstep", "count", func(r analyticsRound) float64 { return float64(r.active) / float64(r.supersteps) })
	count("bsp.sim_time", "units", func(r analyticsRound) float64 { return r.simTime })
	rep.layer("bsp.worker_skew", "ratio", mean(skew))
	if v, _, err := percentile(plans, 0.5); err == nil {
		rep.layer("adaptive.plan_ms_p50", "ms", v)
	}
	count("adaptive.examined", "count", func(r analyticsRound) float64 { return float64(r.examined) })
	count("adaptive.grant_ratio", "ratio", func(r analyticsRound) float64 { return float64(r.granted) / float64(max(r.requested, 1)) })
	return rep
}

// perInstance summarises f over rounds: the median over each instance's
// rounds, then the mean over instances.
func perInstance(rs []analyticsRound, f func(analyticsRound) float64) float64 {
	by := map[int][]float64{}
	for _, r := range rs {
		by[r.instance] = append(by[r.instance], f(r))
	}
	var meds []float64
	for k := 0; len(meds) < len(by); k++ {
		if xs, ok := by[k]; ok {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// analyticsRun builds the engine over g (set-up: engine build plus warm-up
// to quiescence), replays churn to quiescence (the measured window), then
// settles the engine without the repartitioner and checks the answers
// against a from-scratch recompute.
func analyticsRun(g *graph.Graph, churn []graph.Batch, sz analyticsSize, seed int64, tr *tracer) (analyticsRound, *bsp.Engine, error) {
	var out analyticsRound
	t0 := time.Now()
	prog := apps.NewStreamingPageRank()
	e, err := bsp.NewEngine(g, partition.Hash(g, analyticsK), prog, bsp.Config{Workers: 2, Seed: seed})
	if err != nil {
		return out, nil, err
	}
	acfg := adaptive.DefaultConfig(seed)
	acfg.Incremental = true
	svc, err := adaptive.New(acfg)
	if err != nil {
		return out, nil, err
	}
	planner := &timedPlanner{svc: svc, tr: tr, parent: -1, step: -1}
	e.SetRepartitioner(planner)
	if _, done := e.RunUntilQuiescent(sz.warm); !done {
		return out, nil, fmt.Errorf("warm-up: no quiescence within %d supersteps", sz.warm)
	}
	out.setup = time.Since(t0)

	mark := len(e.History())
	granted0, requested0, examined0 := svc.TotalGranted(), svc.TotalRequested(), svc.TotalExamined()
	planner.plans, planner.skew = nil, nil
	cpu0 := cpuTime()
	t0 = time.Now()
	// The stream hands the engine one batch per superstep, at its barrier;
	// each batch is fresh once the engine is next quiescent, when the
	// PageRank answers include it.
	e.SetStream(graph.NewSliceStream(churn))
	var absorbed []time.Time
	done := false
	for i := 0; i < sz.drain && !done; i++ {
		planner.parent = tr.begin("bsp.superstep", -1, i)
		planner.step = i
		s0 := time.Now()
		e.RunSuperstep()
		s1 := time.Now()
		if tr != nil {
			out.stepMs = append(out.stepMs, ms(s1.Sub(s0)))
		}
		tr.end(planner.parent)
		if i < len(churn) {
			absorbed = append(absorbed, s1)
		}
		done = e.Quiescent()
	}
	if !done {
		return out, nil, fmt.Errorf("churn: no quiescence within %d supersteps", sz.drain)
	}
	quiet := time.Now()
	for _, t := range absorbed {
		out.fresh = append(out.fresh, ms(quiet.Sub(t)))
	}
	out.wall = quiet.Sub(t0)
	out.cpu = cpuTime() - cpu0
	totals := bsp.Summarize(e.History()[mark:])
	out.local, out.remote = totals.LocalMsgs, totals.RemoteMsgs
	out.supersteps, out.active, out.simTime = totals.Supersteps, totals.ActiveVertices, totals.Time
	out.granted = svc.TotalGranted() - granted0
	out.requested = svc.TotalRequested() - requested0
	out.examined = svc.TotalExamined() - examined0
	out.cut = partition.CutRatio(e.Graph(), e.Addr())
	out.compactions = e.Graph().Compactions()
	out.bytesPerEdge = float64(e.Graph().MemoryStats().Bytes) / float64(e.Graph().NumEdges())
	out.plans, out.skew = planner.plans, planner.skew

	e.SetRepartitioner(nil)
	if _, done := e.RunUntilQuiescent(sz.drain); !done {
		return out, nil, fmt.Errorf("settle: no quiescence within %d supersteps", sz.drain)
	}
	if err := apps.VerifyStreaming(e, prog); err != nil {
		return out, nil, fmt.Errorf("oracle divergence: %w", err)
	}
	out.hash = tableHash(e.Addr().Freeze())
	return out, e, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

package main

import (
	"bytes"
	"math"
	"sort"
	"time"

	"xdgp/internal/core"
	"xdgp/internal/graph"
	"xdgp/internal/heat"
	"xdgp/internal/partition"
	"xdgp/internal/server"
)

// layerReplay feeds the daemon run's exact tick inputs through the public
// calls a tick is built from, timing each one: graph.ReadFrame on the
// frames that were sent, ApplyBatch, Freeze and Frozen.Apply for every
// epoch the primary would publish, FoldHeat with samples from a heat.Table
// fed the same reads, Step until converged or the step budget, and
// MaybeCompact. p starts in the state the daemon started from. The replay
// must end on the daemon's placement hash (want), or the run fails: a
// replay that diverged would be timing a different computation.
func layerReplay(p *core.Partitioner, in *daemonInput, cfg server.Config, tr *tracer, want uint64, rep *report) {
	p.SetChangeTracking(true)
	primary := p.Assignment().Freeze()
	replicaTbl := primary

	var ht *heat.Table
	var samples []graph.VertexID
	// The daemon decays heat once per tick by 0.5^(tick/half-life); in
	// manual tick mode it assumes the default 250 ms tick.
	decay := math.Exp2(-(250 * time.Millisecond).Seconds() / server.DefaultHeatHalfLife.Seconds())
	if cfg.WorkloadWeight > 0 {
		ht = heat.New(cfg.HeatSample)
		ht.SetRecording(true)
		// The replica's bootstrap paged every placed vertex through the
		// primary, and page lookups count as reads.
		primary.Scan(0, primary.Slots(), func(v graph.VertexID, _ partition.ID) { ht.Record(v) })
	}

	var (
		decodeNs, decoded                   int64
		applyMs, stepMs, foldMs, compactMs  []float64
		freezeMs, frozenApplyMs             []float64
		steps, examined, requested, granted int
		changes, epochs, dirty, sampled     int
		recordNs, recorded                  int64
	)
	publish := func(root, t int) {
		cands := p.DrainChanges()
		if len(cands) == 0 {
			return
		}
		t0 := time.Now()
		cur := p.Assignment().Freeze()
		t1 := time.Now()
		tr.add("partition.freeze", root, t, t0, t1)
		freezeMs = append(freezeMs, ms(t1.Sub(t0)))
		diff := diffTables(primary, cur, cands)
		if len(diff) == 0 {
			return
		}
		t2 := time.Now()
		replicaTbl = replicaTbl.Apply(diff)
		t3 := time.Now()
		tr.add("partition.frozen_apply", root, t, t2, t3)
		frozenApplyMs = append(frozenApplyMs, ms(t3.Sub(t2)))
		primary = cur
		epochs++
		changes += len(diff)
	}

	for t := range in.ticks {
		root := tr.begin("replay.tick", -1, t)
		t0 := time.Now()
		var batch graph.Batch
		for _, f := range in.frames[t] {
			fr, err := graph.ReadFrame(bytes.NewReader(f))
			if err != nil {
				rep.gate(false, "replay decode tick %d: %v", t, err)
				return
			}
			batch = append(batch, fr.Batch...)
		}
		t1 := time.Now()
		tr.add("graph.read_frame", root, t, t0, t1)
		decodeNs += int64(t1.Sub(t0))
		decoded += int64(len(batch))

		t0 = time.Now()
		p.ApplyBatch(batch)
		t1 = time.Now()
		tr.add("core.apply_batch", root, t, t0, t1)
		applyMs = append(applyMs, ms(t1.Sub(t0)))
		if len(batch) > 0 {
			publish(root, t)
		}
		if ht != nil {
			samples = ht.Drain(samples[:0])
			sampled += len(samples)
			t0 = time.Now()
			p.FoldHeat(decay, samples, float64(ht.Sample()))
			t1 = time.Now()
			tr.add("core.fold_heat", root, t, t0, t1)
			foldMs = append(foldMs, ms(t1.Sub(t0)))
		}
		for n := 0; !p.Converged() && n < cfg.MaxStepsPerTick; n++ {
			t0 = time.Now()
			st := p.Step()
			t1 = time.Now()
			tr.add("core.step", root, t, t0, t1)
			stepMs = append(stepMs, ms(t1.Sub(t0)))
			steps++
			examined += st.Examined
			requested += st.Requested
			granted += st.Migrations
		}
		publish(root, t)
		t0 = time.Now()
		compacted := p.Graph().MaybeCompact()
		t1 = time.Now()
		tr.add("graph.compact", root, t, t0, t1)
		if compacted {
			compactMs = append(compactMs, ms(t1.Sub(t0)))
		}
		dirty += p.DirtyCount()
		tr.end(root)

		if ht != nil && in.reads != nil {
			t0 = time.Now()
			for _, v := range in.reads[t] {
				ht.Record(v)
			}
			t1 = time.Now()
			tr.add("heat.record", -1, t, t0, t1)
			recordNs += int64(t1.Sub(t0))
			recorded += int64(len(in.reads[t]))
		}
	}

	got, gotReplica := tableHash(primary), tableHash(replicaTbl)
	rep.gate(got == want && gotReplica == want,
		"layer replay ends on the daemon's placement hash %016x (replay primary %016x, replica side %016x)", want, got, gotReplica)
	rep.notef("layer replay hash %016x matches the daemon run", got)

	t0 := time.Now()
	partition.CutRatio(p.Graph(), p.Assignment())
	rep.layer("partition.cut_ratio_ms", "ms", ms(time.Since(t0)))

	ticks := float64(len(in.ticks))
	p50 := func(name string, xs []float64) {
		if v, _, err := percentile(xs, 0.5); err == nil {
			rep.layer(name, "ms", v)
		} else {
			rep.notef("%s not reported: %v", name, err)
		}
	}
	rep.layer("graph.frame_decode_ns_per_mut", "ns", float64(decodeNs)/float64(decoded))
	p50("graph.compact_ms_p50", compactMs)
	rep.layer("graph.compactions", "count", float64(p.Graph().Compactions()))
	rep.layer("graph.bytes_per_edge", "B", float64(p.Graph().MemoryStats().Bytes)/float64(p.Graph().NumEdges()))
	p50("core.apply_batch_ms_p50", applyMs)
	p50("core.step_ms_p50", stepMs)
	if v, _, err := percentile(stepMs, 0.99); err == nil {
		rep.layer("core.step_ms_p99", "ms", v)
	} else {
		rep.notef("core.step_ms_p99 not reported: %v", err)
	}
	rep.layer("core.steps_per_tick", "count", float64(steps)/ticks)
	rep.layer("core.examined_per_tick", "count", float64(examined)/ticks)
	var stepNs float64
	for _, x := range stepMs {
		stepNs += x * 1e6
	}
	rep.layer("core.ns_per_examined", "ns", stepNs/float64(max(examined, 1)))
	rep.layer("core.grant_ratio", "ratio", float64(granted)/float64(max(requested, 1)))
	rep.layer("core.dirty_after_tick", "count", float64(dirty)/ticks)
	if ht != nil {
		rep.layer("heat.record_ns", "ns", float64(recordNs)/float64(max(recorded, 1)))
		rep.layer("heat.samples_per_tick", "count", float64(sampled)/ticks)
		p50("core.fold_heat_ms_p50", foldMs)
	}
	p50("partition.freeze_ms_p50", freezeMs)
	p50("partition.frozen_apply_ms_p50", frozenApplyMs)
	rep.layer("partition.changes_per_epoch", "count", float64(changes)/float64(max(epochs, 1)))
}

// diffTables reduces change candidates to the sorted, deduplicated list of
// placement transitions between two tables — what one watch-feed epoch
// diff carries to a replica.
func diffTables(prev, cur *partition.Frozen, cands []graph.VertexID) []partition.Change {
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	out := make([]partition.Change, 0, len(cands))
	last := graph.NoVertex
	for _, v := range cands {
		if v == last {
			continue
		}
		last = v
		if to := cur.Of(v); to != prev.Of(v) {
			out = append(out, partition.Change{Vertex: v, To: to})
		}
	}
	return out
}

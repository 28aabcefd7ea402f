// Command xdgpbench is the repository benchmark. It hosts the partitioning
// system in its own process, drives it through public APIs only, checks its
// outputs, and prints the measured metrics. Build and run it from the
// repository root with benchmark/run.sh:
//
//	bash benchmark/run.sh --workload steady-churn --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//	bulk-load       an empty daemon absorbs a Barabási–Albert graph at a fixed batch per tick
//	steady-churn    a converged daemon restored from a snapshot absorbs stationary churn beside Zipf reads
//	analytics-churn streaming PageRank on the BSP engine with the adaptive service, under edge rewires
//
// Every input is generated from -seed before any timer starts. The
// benchmark is the daemon's only tick source and runs one tick at a time,
// so placements, migrations and cut ratio depend on the seed alone. A run
// repeats whole rounds (set-up plus the full input) while another one fits
// in -seconds, and reports medians over rounds and percentiles over pooled
// per-tick samples. With -trace 1 alternate rounds are traced, a layer replay
// follows, and the per-layer metrics plus the tracing overhead are
// reported instead of the end-to-end ones. The last line of standard
// output is one JSON object; the exit code is non-zero when any
// correctness gate failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// Input sizes, chosen so one round takes a few seconds on a 2-CPU machine
// and a run holds enough rounds for stable medians. BENCHMARK.json records
// the reasoning.
var (
	bulkSize    = daemonSize{n: 500_000, perTick: 8192, frame: 1024, setups: 16, minRounds: 2}
	churnSize   = daemonSize{n: 300_000, perTick: 1024, frame: 1024, ticks: 500, reads: 64, shiftEvery: 50, minRounds: 2}
	analyticsSz = analyticsSize{n: 10_000, batches: 40, rate: 0.01, warm: 2500, drain: 2500, instances: 3, minRounds: 2}
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "bulk-load, steady-churn or analytics-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "time budget of the measured rounds")
	flag.IntVar(&trace, "trace", 0, "1 runs traced rounds and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files and scratch snapshots")
	flag.Parse()
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "xdgpbench:", err)
		os.Exit(2)
	}
	var rep *report
	switch o.workload {
	case "bulk-load":
		rep = bulkLoad(bulkSize, o)
	case "steady-churn":
		rep = steadyChurnWorkload(churnSize, o)
	case "analytics-churn":
		rep = analyticsChurn(analyticsSz, o)
	default:
		fmt.Fprintf(os.Stderr, "xdgpbench: unknown workload %q (bulk-load, steady-churn, analytics-churn)\n", o.workload)
		os.Exit(2)
	}
	if rep.tracer != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
		lines, err := rep.tracer.write(path)
		rep.gate(err == nil, "write spans: %v", err)
		rep.notef("spans written to %s; self time by span:", path)
		for _, l := range lines {
			rep.notef("  %s", l)
		}
	}
	if rep.print(o.trace) != nil || !rep.correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: operations attempted and failed,
// correctness gates, metrics and human-readable notes.
type report struct {
	workload          string
	correct           bool
	attempted, failed int
	e2e, layers       map[string]metric
	notes             []string
	tracer            *tracer
	inputHash         uint64
	placementHash     uint64
	rounds            int
}

func newReport(workload string) *report {
	return &report{workload: workload, correct: true, e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts n attempted operations, all failed when err is non-nil. Any
// failed operation fails the run.
func (r *report) op(n int, err error, format string, args ...any) {
	r.attempted += n
	if err != nil {
		r.failed += n
		r.correct = false
		r.notef("FAILED %s: %v", fmt.Sprintf(format, args...), err)
	}
}

// gate records a correctness check; a failed one fails the run.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.notef("GATE FAILED: "+format, args...)
	}
}

func (r *report) setE2E(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64)  { r.layers[name] = metric{v, unit} }

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists BENCHMARK.json's end-to-end metrics. Every workload
// measures every one of them; bench_test.go holds the two lists to the
// manifest.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mut_per_s", "mut/s"},
	{"fresh_p50_ms", "ms"},
	{"cut_ratio", "ratio"},
	{"migrations_per_kmut", "count"},
	{"live_heap_mb", "MiB"},
	{"cpu_s", "s"},
}

// perLayer lists BENCHMARK.json's per-layer metrics: the layer metrics
// below, then trace.overhead.<name> for every end-to-end metric. A layer
// a workload does not exercise reports 0 there.
var perLayer = append([]metricDef{
	{"graph.frame_decode_ns_per_mut", "ns"},
	{"graph.compact_ms_p50", "ms"},
	{"graph.compactions", "count"},
	{"graph.bytes_per_edge", "B"},
	{"core.apply_batch_ms_p50", "ms"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p99", "ms"},
	{"core.steps_per_tick", "count"},
	{"core.examined_per_tick", "count"},
	{"core.ns_per_examined", "ns"},
	{"core.grant_ratio", "ratio"},
	{"core.dirty_after_tick", "count"},
	{"core.converge_s", "s"},
	{"heat.record_ns", "ns"},
	{"heat.samples_per_tick", "count"},
	{"core.fold_heat_ms_p50", "ms"},
	{"partition.freeze_ms_p50", "ms"},
	{"partition.frozen_apply_ms_p50", "ms"},
	{"partition.changes_per_epoch", "count"},
	{"partition.cut_ratio_ms", "ms"},
	{"server.send_ack_ms_p50", "ms"},
	{"server.tick_ms_p50", "ms"},
	{"server.tick_ms_p90", "ms"},
	{"server.epochs_per_tick", "count"},
	{"server.read_ms_p50", "ms"},
	{"server.read_ms_p99", "ms"},
	{"replica.catchup_ms_p50", "ms"},
	{"replica.catchup_ms_p90", "ms"},
	{"replica.bootstrap_s", "s"},
	{"replica.resyncs", "count"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.read_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.mb", "MiB"},
	{"bsp.superstep_ms_p50", "ms"},
	{"bsp.superstep_ms_p90", "ms"},
	{"bsp.supersteps", "count"},
	{"bsp.msgs_per_superstep", "count"},
	{"bsp.active_per_superstep", "count"},
	{"bsp.remote_msg_frac", "ratio"},
	{"bsp.sim_time", "units"},
	{"bsp.worker_skew", "ratio"},
	{"adaptive.plan_ms_p50", "ms"},
	{"adaptive.examined", "count"},
	{"adaptive.grant_ratio", "ratio"},
}, overheadDefs()...)

func overheadDefs() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		out = append(out, metricDef{"trace.overhead." + d.name, d.unit})
	}
	return out
}

// result returns exactly the declared metric set: end-to-end untraced,
// per-layer traced. A missing end-to-end metric, or a metric set with
// another unit than declared, fails the run; a missing per-layer metric
// belongs to a layer the workload does not exercise and reads 0.
func (r *report) result(traced bool) map[string]metric {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	out := make(map[string]metric, len(defs))
	var idle []string
	for _, d := range defs {
		m, ok := vals[d.name]
		switch {
		case !ok && traced:
			idle = append(idle, d.name)
			m = metric{0, d.unit}
		case !ok:
			r.gate(false, "end-to-end metric %s not measured", d.name)
			m = metric{0, d.unit}
		case m.Unit != d.unit:
			r.gate(false, "metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	if len(idle) > 0 {
		r.notef("not exercised by %s, reported as 0: %v", r.workload, idle)
	}
	return out
}

// print writes the notes, every metric with its unit, and the final JSON
// line: end-to-end metrics untraced, per-layer metrics traced.
func (r *report) print(traced bool) error {
	vals := r.result(traced)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("workload %s: %d rounds, input hash %016x, placement hash %016x, correct=%v, %d/%d operations failed\n",
		r.workload, r.rounds, r.inputHash, r.placementHash, r.correct, r.failed, r.attempted)
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, vals[n].Value, vals[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   vals,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// liveHeapMB forces a full collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

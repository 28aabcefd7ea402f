// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each driver rebuilds the workload, runs the
// relevant systems (sequential heuristic for the quality studies, the BSP
// engine with the adaptive service for the system studies) and prints the
// same rows/series the paper reports, plus the shape checks recorded in
// EXPERIMENTS.md.
//
// Absolute values differ from the paper — its numbers came from physical
// clusters — but the comparisons (who wins, by what factor, where the
// curves bend) are reproduced, and the system experiments report times
// normalised to static hash partitioning exactly as the paper does.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"xdgp/internal/stats"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks datasets and repetition counts so the whole suite runs
	// in seconds; used by tests and the default bench mode.
	Quick bool
	// Reps is the number of repetitions for mean ± SEM reporting; the
	// paper uses 10. Zero means the experiment's default.
	Reps int
	// Seed is the base seed; repetition r uses Seed+r.
	Seed int64
	// Out receives the printed report; nil discards it.
	Out io.Writer
	// Parallelism is the number of goroutines that decide the quality
	// experiments' heuristic iterations; 0 means one. Figures are
	// byte-identical for every value, so it trades only CPUs for
	// wall-clock time.
	Parallelism int
	// Workers is the number of compute goroutines per BSP engine (the
	// system experiments). 0 keeps the paper's one-worker-per-partition
	// setup; the simulated statistics are identical for any value.
	Workers int
	// Incremental switches both the sequential heuristic and the BSP
	// background service to the active-set (frontier) scheduler: sweeps
	// proportional to churn instead of |V|. Off keeps the paper-exact
	// full sweep. Both schedules draw the same per-vertex coins, so their
	// results usually agree exactly; where the frontier misses a wake
	// they differ numerically but stay statistically equivalent.
	Incremental bool
	// WorkloadWeight sets core.Config.WorkloadWeight (and the adaptive
	// service's mirror) on every partitioner the experiments build: the
	// strength of the workload term that weights migration votes by
	// read heat. The shipped experiments fold no heat, so 0 (the
	// paper-exact objective) and >0 print identical figures unless a
	// variant installs a heat trace; the knob exists so such variants
	// share the standard harness.
	WorkloadWeight float64
	// App filters the analytics-suite experiment ("apps") to one streaming
	// program: "cc", "sssp" or "pagerank". Empty runs the full matrix. The
	// other experiments ignore it.
	App string
}

// coreParallelism resolves the shard count for core.Config.Parallelism:
// the experiments default to one shard (see Options.Parallelism).
func (o Options) coreParallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return 1
}

// bspWorkers resolves the engine worker count, defaulting to one worker
// per partition (the paper's configuration).
func (o Options) bspWorkers(k int) int {
	if o.Workers > 0 {
		return o.Workers
	}
	return k
}

// normalize fills defaults.
func (o Options) normalize(defaultReps int) Options {
	if o.Reps <= 0 {
		o.Reps = defaultReps
		if o.Quick && o.Reps > 3 {
			o.Reps = 3
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Result is the structured outcome of one experiment, consumed by tests
// and rendered by cmd/experiments.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Series []*stats.Series
	Notes  []string
	// Values holds named scalar findings checked by tests (e.g.
	// "hash.final.cut", "adaptive.mean.time").
	Values map[string]float64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Result) addNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the full report to w.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n\n", r.ID, r.Title)
	for _, tb := range r.Tables {
		fmt.Fprintln(w, tb.String())
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-28s %s  (min %.3g, max %.3g, last %.3g)\n",
			s.Name, s.Sparkline(48), s.MinY(), s.MaxY(), s.Last())
	}
	if len(r.Series) > 0 {
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "value: %-32s %.4g\n", k, r.Values[k])
		}
	}
	fmt.Fprintln(w)
}

// Runner is an experiment driver.
type Runner func(Options) (*Result, error)

// Registry maps experiment IDs to drivers, in the paper's order.
func Registry() []struct {
	ID    string
	Title string
	Run   Runner
} {
	return []struct {
		ID    string
		Title string
		Run   Runner
	}{
		{"table1", "Table 1: datasets", Table1},
		{"fig1", "Figure 1: effect of willingness-to-move s", Figure1},
		{"fig4", "Figure 4: sensitivity to initial partitioning", Figure4},
		{"fig5", "Figure 5: dependence on graph type", Figure5},
		{"fig6", "Figure 6: scalability", Figure6},
		{"fig7", "Figure 7: biomedical use case", Figure7},
		{"fig8", "Figure 8: online social network use case", Figure8},
		{"fig9", "Figure 9: mobile network use case", Figure9},
		{"apps", "Analytics suite: streaming apps under churn, adaptive vs static", Apps},
	}
}

// Run executes the experiment with the given ID.
func Run(id string, opt Options) (*Result, error) {
	for _, e := range Registry() {
		if e.ID == id {
			res, err := e.Run(opt)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			if opt.Out != nil {
				res.Render(opt.Out)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
}

// IDs lists the registered experiment IDs.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

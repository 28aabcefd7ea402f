// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the rows/series the paper reports, plus shape notes.
//
// Examples:
//
//	experiments -run all            # every table and figure, full scale
//	experiments -run fig4           # one experiment
//	experiments -run fig7 -quick    # miniature (seconds, CI-friendly)
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xdgp/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runID    = fs.String("run", "all", "experiment id (or 'all'): "+strings.Join(experiments.IDs(), ", "))
		quick    = fs.Bool("quick", false, "miniature datasets and few repetitions")
		reps     = fs.Int("reps", 0, "repetitions (0 = experiment default, the paper uses 10)")
		seed     = fs.Int64("seed", 1, "base random seed")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", 0, "shards that decide the quality experiments' iterations (0 = one); figures are the same for every value")
		workers  = fs.Int("workers", 0, "compute goroutines per BSP engine (0 = one per partition)")
		increm   = fs.Bool("incremental", false, "active-set scheduler for the heuristic and the BSP service (full sweep when off)")
		app      = fs.String("app", "", "filter the analytics-suite experiment to one streaming program: cc, sssp or pagerank (empty = full matrix)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	opt := experiments.Options{
		Quick: *quick, Reps: *reps, Seed: *seed, Out: os.Stdout,
		Parallelism: *parallel, Workers: *workers, Incremental: *increm,
		App: *app,
	}
	ids := []string{*runID}
	if *runID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		if _, err := experiments.Run(id, opt); err != nil {
			return err
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

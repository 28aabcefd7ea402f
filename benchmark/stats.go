package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and the
// sample count it rests on. It refuses — returns an error — when fewer
// than minBeyond samples lie beyond the quantile, because such a tail
// value is one or two outliers, not a percentile.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(idx, 0)
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], n, nil
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). It is the summary for per-run values such as one setup
// or one round's throughput, where there are too few samples for a
// percentile's tail rule to matter.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

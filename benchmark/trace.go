package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name (layer.call), interval in
// nanoseconds since the tracer started, the span that caused it (-1 for a
// root) and the tick it belongs to (-1 outside the tick loop).
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Tick       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods at the cost of a
// nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, tick int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Tick: tick})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, parent, tick int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Tick: tick})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (concurrent work) or stick out of the parent; only the union of their
// intervals clipped to the parent counts, so no instant is subtracted
// twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, x := range ivs {
			if x.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x.lo, x.hi
			} else if x.hi > curHi {
				curHi = x.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// byName groups span durations (ms) by span name.
func (t *tracer) byName() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// write dumps every span as one tab-separated line
// (id, parent, tick, name, start_ns, end_ns, self_ns) and returns a
// per-name self-time summary, largest first, for the report.
func (t *tracer) write(path string) ([]string, error) {
	self := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttick\tname\tstart_ns\tend_ns\tself_ns")
	total := map[string]int64{}
	count := map[string]int{}
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.Parent, s.Tick, s.Name, s.Start, s.End, self[i])
		total[s.Name] += self[i]
		count[s.Name]++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return total[names[a]] > total[names[b]] })
	lines := make([]string, 0, len(names))
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-28s %8d spans  self %10.3f ms", n, count[n], float64(total[n])/1e6))
	}
	return lines, nil
}

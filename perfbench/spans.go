package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one module or request
// share an owner id; parent is the index of the enclosing span, -1 for
// a root.
type span struct {
	name       string
	parent     int
	owner      int
	start, end time.Duration // since the tracer's epoch
}

// tracer records spans in memory; it is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its index for close and for children.
func (t *tracer) open(name string, parent, owner int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, owner: owner, start: now})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (for example on the server side
// of a request).
func (t *tracer) add(name string, parent, owner int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, owner: owner,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, owner int, f func()) {
	id := t.open(name, parent, owner)
	f()
	t.close(id)
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part of each interval its direct children cover.
// Children running in parallel (one module per worker) cover an
// instant once.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.name] += s.end - s.start - covered(children[i])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, end time.Duration
	for _, s := range spans {
		start := max(s.start, end)
		if s.end > start {
			total += s.end - start
			end = s.end
		}
	}
	return total
}

// layerTable turns span self times into per-operation per-layer
// seconds through the span-name-to-metric map, prints the self-time
// table, and fills m.
func (t *tracer) layerTable(m map[string]float64, metricOf map[string]string, ops int) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %12s  %s\n", "span", "self_ms/op", "share", "metric")
	var total time.Duration
	for _, n := range names {
		total += self[n]
	}
	for _, n := range names {
		per := self[n].Seconds() / float64(ops)
		if k := metricOf[n]; k != "" {
			m[k] += per
		}
		fmt.Printf("%-28s %14.4f %11.1f%%  %s\n", n, per*1e3,
			100*float64(self[n])/float64(total), metricOf[n])
	}
	m["trace.spans"] = float64(len(t.spans))
}

// write dumps the spans as tab-separated values:
// index, parent, owner, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\towner\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.owner, s.name,
			s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace prints the self-time table and the tracing overhead
// (traced minus untraced median operation time, from per-operation
// wall times in ms), fills the per-layer metrics, and writes the spans.
func finishTrace(e *env, tr *tracer, m map[string]float64, metricOf map[string]string, untraced, traced []float64) {
	tr.layerTable(m, metricOf, len(traced))
	u, t := median(untraced), median(traced)
	m["wall.op_p50_ms"] = u
	m["trace.overhead_pct"] = 100 * (t - u) / u
	fmt.Printf("tracing overhead: untraced median %.3f ms (%d ops), traced median %.3f ms (%d ops)\n",
		u, len(untraced), t, len(traced))
	if err := tr.write(e.spanOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans: %s\n", e.spanOut)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into each
// layer. It lives entirely in the benchmark: the program under test is
// only ever wrapped, never edited. A nil *tracer is the untraced mode —
// every method is a no-op and start returns noSpan — so the timed loops
// call it unconditionally.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	attribs []attrib
}

// span is one timed call: name, start and end relative to the tracer's
// origin, the span that caused it, and the round or request it belongs to.
// lane is the Chrome-trace thread row; spans sharing a lane never overlap.
type span struct {
	name       string
	lane       int
	parent     int32
	req        int64
	start, end int64 // ns since t0; end < 0 while open
}

// attrib carves a measured sub-layer out of a span's self time: work the
// benchmark times through a decorator inside one call (trace parsing
// inside ReplayParallel) or measures outside it (log decode inside a
// boot), where no span of its own can sit.
type attrib struct {
	span int32
	name string
	ns   int64
}

const noSpan int32 = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id.
func (t *tracer) start(name string, lane int, parent int32, req int64) int32 {
	if t == nil {
		return noSpan
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, lane: lane, parent: parent, req: req, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// attribute moves d of span id's self time to the named sub-layer.
func (t *tracer) attribute(id int32, name string, d time.Duration) {
	if t == nil || id == noSpan || d <= 0 {
		return
	}
	t.mu.Lock()
	t.attribs = append(t.attribs, attrib{span: id, name: name, ns: int64(d)})
	t.mu.Unlock()
}

// busy sums the durations of every closed span with the given name —
// time busy in that layer, counted once per concurrent caller.
func (t *tracer) busy(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			ns += s.end - s.start
		}
	}
	return time.Duration(ns)
}

// count reports how many closed spans carry the name.
func (t *tracer) count(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			n++
		}
	}
	return n
}

// ledgerRow is one layer's share of the root span's wall time.
type ledgerRow struct {
	Layer string
	Self  time.Duration
	Busy  time.Duration
	Spans int
}

// ledger splits the wall time of span root among the layers below it.
// At every instant the wall clock is shared equally among the innermost
// open spans (those with no open child), so two concurrent pushers each
// get half of the interval they overlap and the rows sum exactly to the
// root's duration. Time when only the root is open is the unaccounted
// row. Attributions then move measured sub-layers out of their span's
// share (never more than the share itself).
func (t *tracer) ledger(root int32) (rows []ledgerRow, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.spans[root]
	wall = time.Duration(rs.end - rs.start)

	// A span belongs to the ledger when root is among its ancestors.
	in := make([]bool, len(t.spans))
	in[root] = true
	for i := int(root) + 1; i < len(t.spans); i++ {
		if p := t.spans[i].parent; p != noSpan && in[p] && t.spans[i].end >= 0 {
			in[i] = true
		}
	}
	type event struct {
		at    int64
		id    int32
		start bool
	}
	var events []event
	for i, s := range t.spans {
		if in[i] && int32(i) != root {
			events = append(events, event{s.start, int32(i), true}, event{s.end, int32(i), false})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].start && events[b].start // close before open at a tie
	})

	self := make([]float64, len(t.spans))
	openKids := make([]int, len(t.spans))
	open := make([]bool, len(t.spans))
	frontier := map[int32]bool{root: true}
	open[root] = true
	last := rs.start
	for _, e := range events {
		if dt := e.at - last; dt > 0 && len(frontier) > 0 {
			share := float64(dt) / float64(len(frontier))
			for id := range frontier {
				self[id] += share
			}
		}
		last = e.at
		s := t.spans[e.id]
		if e.start {
			open[e.id] = true
			frontier[e.id] = true
			openKids[s.parent]++
			delete(frontier, s.parent)
		} else {
			open[e.id] = false
			delete(frontier, e.id)
			openKids[s.parent]--
			if openKids[s.parent] == 0 && open[s.parent] {
				frontier[s.parent] = true
			}
		}
	}
	if dt := rs.end - last; dt > 0 {
		share := float64(dt) / float64(len(frontier))
		for id := range frontier {
			self[id] += share
		}
	}

	byLayer := map[string]*ledgerRow{}
	row := func(name string) *ledgerRow {
		r := byLayer[name]
		if r == nil {
			r = &ledgerRow{Layer: name}
			byLayer[name] = r
		}
		return r
	}
	for _, a := range t.attribs {
		if !in[a.span] {
			continue
		}
		moved := float64(a.ns)
		if moved > self[a.span] {
			moved = self[a.span]
		}
		self[a.span] -= moved
		r := row(a.name)
		r.Self += time.Duration(moved)
		r.Busy += time.Duration(a.ns)
	}
	for i, s := range t.spans {
		if !in[i] {
			continue
		}
		name := s.name
		if int32(i) == root {
			name = "unaccounted"
		} else {
			r := row(name)
			r.Busy += time.Duration(s.end - s.start)
			r.Spans++
		}
		row(name).Self += time.Duration(self[i])
	}
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	return rows, wall
}

// writeLedger prints the self-time table of one workload.
func writeLedger(w io.Writer, workload string, rows []ledgerRow, wall time.Duration) {
	fmt.Fprintf(w, "ledger %s: wall %.3fs (self time = wall-clock share; busy = summed span time)\n", workload, wall.Seconds())
	fmt.Fprintf(w, "  %-28s %10s %7s %10s %7s\n", "layer", "self_s", "share", "busy_s", "spans")
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
		fmt.Fprintf(w, "  %-28s %10.4f %6.1f%% %10.4f %7d\n", r.Layer, r.Self.Seconds(),
			100*r.Self.Seconds()/wall.Seconds(), r.Busy.Seconds(), r.Spans)
	}
	fmt.Fprintf(w, "  %-28s %10.4f %6.1f%%\n", "total", sum.Seconds(), 100*sum.Seconds()/wall.Seconds())
}

// writeChromeTrace writes every span as a Chrome trace-event JSON array
// ("X" complete events, one thread row per lane), loadable in
// chrome://tracing or Perfetto. meta lands on a metadata event.
func (t *tracer) writeChromeTrace(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	fmt.Fprint(bw, "[\n")
	first := true
	emit := func(v any) error {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		return enc.Encode(v)
	}
	err = emit(map[string]any{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]any{"name": "e2ebench", "fingerprint": meta}})
	for i, s := range spans {
		if err != nil {
			break
		}
		if s.end < 0 {
			continue
		}
		err = emit(map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.lane,
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]any{"id": i, "parent": s.parent, "req": s.req},
		})
	}
	if err == nil {
		fmt.Fprint(bw, "]\n")
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

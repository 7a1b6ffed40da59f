package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
)

// EventKind classifies a lifecycle event.
type EventKind uint8

// Lifecycle event kinds: the two fast-path events plus the four control
// verbs of the characterization service.
const (
	EventIssue EventKind = iota
	EventComplete
	EventEnable
	EventDisable
	EventReset
	EventSnapshot
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventIssue:
		return "issue"
	case EventComplete:
		return "complete"
	case EventEnable:
		return "enable"
	case EventDisable:
		return "disable"
	case EventReset:
		return "reset"
	case EventSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one entry in the lifecycle ring. Fast-path events carry a full
// trace.Record; control events carry only the identity and a virtual
// timestamp interpolated from the most recent command seen.
type Event struct {
	Kind          EventKind
	VM, Disk      string
	VirtualMicros int64
	// Rec is populated for EventIssue and EventComplete only. For
	// EventIssue the record is taken mid-flight, so CompleteMicros is 0.
	Rec trace.Record
}

// LifecycleTracer keeps the last N issue/complete/enable/disable/reset/
// snapshot events in a Ring and exports them as Chrome trace-event JSON
// (load the output in chrome://tracing or Perfetto).
//
// Unlike internal/trace.Tracer — a single-goroutine buffer for offline
// traces — the ring is lock-free, so every world of a parallel
// simulation can feed one tracer while HTTP handlers drain it. It is an
// opt-in vscsi.Observer: attach it with Disk.AddObserver alongside the
// collector.
type LifecycleTracer struct {
	ring *Ring[Event]
	// lastVirtual tracks the most recent virtual timestamp seen on the
	// fast path, so control events — which happen outside virtual time —
	// can be placed on the same axis.
	lastVirtual atomic.Int64
}

// NewLifecycleTracer returns a tracer retaining the last capacity events
// (minimum 1).
func NewLifecycleTracer(capacity int) *LifecycleTracer {
	return &LifecycleTracer{ring: NewRing[Event](capacity)}
}

// OnIssue records a command issue. Part of the vscsi.Observer surface.
func (t *LifecycleTracer) OnIssue(r *vscsi.Request) {
	ts := r.IssueTime.Micros()
	t.lastVirtual.Store(ts)
	t.ring.Push(Event{Kind: EventIssue, VM: r.VM, Disk: r.Disk, VirtualMicros: ts, Rec: trace.FromRequest(r)})
}

// OnComplete records a command completion.
func (t *LifecycleTracer) OnComplete(r *vscsi.Request) {
	ts := r.CompleteTime.Micros()
	t.lastVirtual.Store(ts)
	t.ring.Push(Event{Kind: EventComplete, VM: r.VM, Disk: r.Disk, VirtualMicros: ts, Rec: trace.FromRequest(r)})
}

// Control records a service control event (enable/disable/reset/snapshot).
// Unknown kinds are ignored.
func (t *LifecycleTracer) Control(kind EventKind, vm, disk string) {
	switch kind {
	case EventEnable, EventDisable, EventReset, EventSnapshot:
		t.ring.Push(Event{Kind: kind, VM: vm, Disk: disk, VirtualMicros: t.lastVirtual.Load()})
	}
}

// ControlVerb records a control event named by its HTTP control-plane verb
// ("enable", "disable", "reset" or "snapshot"); unknown verbs are ignored.
// Its signature matches httpstats.Options.OnControl.
func (t *LifecycleTracer) ControlVerb(verb, vm, disk string) {
	for k := EventEnable; k <= EventSnapshot; k++ {
		if verb == k.String() {
			t.Control(k, vm, disk)
		}
	}
}

// Events returns the retained events, oldest first.
func (t *LifecycleTracer) Events() []Event {
	entries := t.ring.Entries(0)
	out := make([]Event, len(entries))
	for i, e := range entries {
		out[i] = e.Value
	}
	return out
}

// Len is the number of retained events.
func (t *LifecycleTracer) Len() int { return t.ring.Len() }

// Cap returns the ring capacity.
func (t *LifecycleTracer) Cap() int { return t.ring.Cap() }

// Total returns the lifetime event count, including overwritten entries.
func (t *LifecycleTracer) Total() int64 { return int64(t.ring.Total()) }

// ioArgs are the trace args of a fast-path event; completions add the
// queue depth and status.
type ioArgs struct {
	Seq         uint64  `json:"seq"`
	LBA         uint64  `json:"lba"`
	Blocks      uint32  `json:"blocks"`
	Outstanding *uint16 `json:"outstanding,omitempty"`
	Status      string  `json:"status,omitempty"`
}

// WriteChromeTrace renders the retained events as a Chrome trace-event
// JSON array. Each VM is a process and each disk a thread; completions
// become slices spanning issue→completion, issues and control verbs
// instants.
func (t *LifecycleTracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	spans := make([]Span, len(events))
	for i, e := range events {
		sp := Span{Process: "vm " + e.VM, Thread: "disk " + e.Disk, Cat: "io", Ts: e.VirtualMicros}
		args := ioArgs{Seq: e.Rec.Seq, LBA: e.Rec.LBA, Blocks: e.Rec.Blocks}
		switch e.Kind {
		case EventComplete:
			sp.Name, sp.Ts, sp.Dur = e.Rec.Op.String(), e.Rec.IssueMicros, max(e.Rec.LatencyMicros(), 0)
			args.Outstanding, args.Status = &e.Rec.Outstanding, e.Rec.Status.String()
		case EventIssue:
			sp.Name, sp.Instant = "issue "+e.Rec.Op.String(), "t"
		default:
			sp.Name, sp.Cat, sp.Instant, sp.Args = e.Kind.String(), "control", "p", json.RawMessage("{}")
		}
		if sp.Args == nil {
			sp.Args, _ = json.Marshal(args)
		}
		spans[i] = sp
	}
	return WriteChromeTrace(w, spans)
}

// ServeHTTP implements GET /debug/trace.
func (t *LifecycleTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.WriteChromeTrace(w)
}

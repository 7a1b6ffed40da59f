package fleetobs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one pipeline event. Stage-latency spans (Kind "stage") and
// structural events (resync, rotation, compaction, ...) share the
// type; unset fields are omitted from the JSON view.
type Event struct {
	// Seq is the ring-assigned global sequence, monotone per Tracker.
	Seq uint64 `json:"seq"`
	// UnixNano is when the event was recorded (for spans: when the span
	// ended).
	UnixNano int64 `json:"unix_nano"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Scope is "agent" or "aggregator" where known.
	Scope string `json:"scope,omitempty"`
	// Stage names the pipeline stage for Kind "stage" spans.
	Stage string `json:"stage,omitempty"`
	// Host is the fleet host the event concerns (the sender for pushes).
	Host string `json:"host,omitempty"`
	// Shard is the aggregator shard index, -1 when not applicable.
	Shard int `json:"shard,omitempty"`
	// TraceID links the event to one push's end-to-end trace.
	TraceID string `json:"trace_id,omitempty"`
	// BatchSeq is the batch sequence number involved, when any.
	BatchSeq uint64 `json:"batch_seq,omitempty"`
	// Cause explains resyncs ("seq-gap", "unknown-host", "unknown-disk",
	// "layout-mismatch") and retention/truncation events.
	Cause string `json:"cause,omitempty"`
	// DurationNanos is the span length for timed events.
	DurationNanos int64 `json:"duration_nanos,omitempty"`
	// Detail carries free-form context (segment paths, replay counts).
	Detail string `json:"detail,omitempty"`
}

// slowRing retains the K slowest operations seen. An atomic floor
// (the smallest retained duration once the ring is full) lets the
// overwhelming majority of fast operations bail with one atomic load
// before ever touching the mutex.
type slowRing struct {
	k     int
	floor atomic.Int64
	mu    sync.Mutex
	ops   []Event // unordered; scanned on admit (K is small)
}

func newSlowRing(k int) *slowRing {
	return &slowRing{k: k, ops: make([]Event, 0, k)}
}

func (r *slowRing) offer(e Event) {
	if e.DurationNanos <= 0 {
		return
	}
	if f := r.floor.Load(); e.DurationNanos <= f {
		return // ring is full of slower ops; skip the lock
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ops) < r.k {
		r.ops = append(r.ops, e)
		if len(r.ops) == r.k {
			r.floor.Store(r.minLocked())
		}
		return
	}
	// Replace the current minimum if we beat it (floor may be stale —
	// recheck under the lock).
	minI := 0
	for i := 1; i < len(r.ops); i++ {
		if r.ops[i].DurationNanos < r.ops[minI].DurationNanos {
			minI = i
		}
	}
	if e.DurationNanos <= r.ops[minI].DurationNanos {
		return
	}
	r.ops[minI] = e
	r.floor.Store(r.minLocked())
}

func (r *slowRing) minLocked() int64 {
	m := r.ops[0].DurationNanos
	for _, op := range r.ops[1:] {
		if op.DurationNanos < m {
			m = op.DurationNanos
		}
	}
	return m
}

func (r *slowRing) slowest(threshold time.Duration, limit int) []Event {
	th := threshold.Nanoseconds()
	r.mu.Lock()
	out := make([]Event, 0, len(r.ops))
	for _, op := range r.ops {
		if op.DurationNanos >= th {
			out = append(out, op)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationNanos != out[j].DurationNanos {
			return out[i].DurationNanos > out[j].DurationNanos
		}
		return out[i].Seq < out[j].Seq
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

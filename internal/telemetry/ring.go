package telemetry

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Ring is a bounded, lock-free ring keeping the last Cap() values pushed.
// A writer reserves a sequence number with one atomic add and publishes
// an immutable entry with one atomic pointer store; readers load whatever
// entries are published and return them in sequence order. Under
// contention a reader can see slots from adjacent laps, so Entries orders
// by sequence rather than by slot, trading exact lap consistency for a
// push path with no lock at all.
type Ring[T any] struct {
	slots []atomic.Pointer[RingEntry[T]]
	next  atomic.Uint64
}

// RingEntry is one retained value and the 1-based sequence number the
// ring assigned it.
type RingEntry[T any] struct {
	Seq   uint64
	Value T
}

// NewRing returns a ring retaining exactly capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[RingEntry[T]], max(capacity, 1))}
}

// Push appends v, overwriting the oldest value once the ring is full, and
// returns its sequence number.
func (r *Ring[T]) Push(v T) uint64 {
	seq := r.next.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&RingEntry[T]{Seq: seq, Value: v})
	return seq
}

// Entries returns up to limit of the newest retained entries, oldest
// first (limit <= 0 means all of them).
func (r *Ring[T]) Entries(limit int) []RingEntry[T] {
	out := make([]RingEntry[T], 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	slices.SortFunc(out, func(a, b RingEntry[T]) int { return cmp.Compare(a.Seq, b.Seq) })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Len returns how many values the ring retains.
func (r *Ring[T]) Len() int { return int(min(r.Total(), uint64(len(r.slots)))) }

// Total returns how many values were ever pushed, overwritten ones
// included.
func (r *Ring[T]) Total() uint64 { return r.next.Load() }

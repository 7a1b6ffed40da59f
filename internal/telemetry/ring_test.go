package telemetry

import (
	"errors"
	"sync"
	"testing"
)

// TestRingKeepsExactCapacity: a ring keeps exactly its capacity (not a
// power of two rounded up), newest last, with lifetime sequence numbers.
func TestRingKeepsExactCapacity(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 7; i++ {
		if seq := r.Push(i * 10); seq != uint64(i) {
			t.Fatalf("push %d got seq %d", i, seq)
		}
	}
	got := r.Entries(0)
	if len(got) != 3 || r.Len() != 3 || r.Cap() != 3 || r.Total() != 7 {
		t.Fatalf("entries %v len %d cap %d total %d", got, r.Len(), r.Cap(), r.Total())
	}
	for i, e := range got {
		if e.Seq != uint64(5+i) || e.Value != (5+i)*10 {
			t.Errorf("entry %d = %+v, want seq %d", i, e, 5+i)
		}
	}
	if last := r.Entries(1); len(last) != 1 || last[0].Seq != 7 {
		t.Errorf("Entries(1) = %v, want the newest", last)
	}
	if NewRing[int](0).Cap() != 1 {
		t.Error("capacity 0 not raised to 1")
	}
}

// TestRingConcurrentPushAndRead races writers against readers: every
// read is in strictly increasing sequence order and never exceeds the
// capacity, and no push is lost from the total.
func TestRingConcurrentPushAndRead(t *testing.T) {
	const writers, each, capacity = 4, 2000, 64
	r := NewRing[uint64](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Push(uint64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			entries := r.Entries(0)
			if len(entries) > capacity {
				t.Errorf("read %d entries from a ring of %d", len(entries), capacity)
				return
			}
			for j := 1; j < len(entries); j++ {
				if entries[j].Seq <= entries[j-1].Seq {
					t.Errorf("entries out of sequence order: %d after %d", entries[j].Seq, entries[j-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Total() != writers*each || r.Len() != capacity {
		t.Errorf("total %d len %d, want %d and %d", r.Total(), r.Len(), writers*each, capacity)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteChromeTraceReturnsWriteErrors: a failing destination surfaces
// as an error instead of a silently truncated trace.
func TestWriteChromeTraceReturnsWriteErrors(t *testing.T) {
	spans := make([]Span, 512)
	for i := range spans {
		spans[i] = Span{Process: "p", Thread: "t", Name: "x", Ts: int64(i), Dur: 1}
	}
	if err := WriteChromeTrace(failWriter{}, spans); err == nil {
		t.Error("write error dropped")
	}
	tr := NewLifecycleTracer(4)
	tr.Control(EventEnable, "vm", "d")
	if err := tr.WriteChromeTrace(failWriter{}); err == nil {
		t.Error("lifecycle trace dropped the write error")
	}
}

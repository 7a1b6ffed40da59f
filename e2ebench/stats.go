package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler polls the Go heap in use (live objects plus those not yet
// collected, HeapAlloc) every millisecond and keeps the peak since the
// last step boundary. heap_peak_mb is the median of the per-step peaks,
// so one step that caught the heap at an unlucky point does not set the
// run's figure.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // bytes, since the last takeStep
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) observe() {
	v := readHeap()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

// takeStep returns the peak heap in MiB since the previous call and starts
// the next step's peak from the heap in use now.
func (h *heapSampler) takeStep() float64 {
	h.observe()
	peak := h.peak.Swap(readHeap())
	return float64(peak) / (1 << 20)
}

// finish stops the sampler and waits for its goroutine.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// gcDelta is the Go runtime's allocation and GC work across one phase.
type gcDelta struct {
	allocBytes uint64
	cycles     uint32
	pause      time.Duration
}

type gcMark runtime.MemStats

func markGC() *gcMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*gcMark)(&m)
}

func (a *gcMark) until(b *gcMark) gcDelta {
	return gcDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		cycles:     b.NumGC - a.NumGC,
		pause:      time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// latencies is a mutex-guarded sample list filled from HTTP goroutines.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(v float64) {
	l.mu.Lock()
	l.xs = append(l.xs, v)
	l.mu.Unlock()
}

func (l *latencies) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.xs
	l.xs = nil
	return out
}

// stealMark is a reading of the machine-wide steal and total CPU ticks
// from /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor ran something else while this machine's CPUs wanted to run:
// on a shared host it slows every metric, so runs measure it.
type stealMark struct{ steal, total uint64 }

func markSteal() stealMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMark{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealMark{}
	}
	var m stealMark
	for i, f := range fields[1:9] { // user .. steal; guest time is inside user
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealMark{}
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m
}

// pct is the share of CPU time stolen since m, in percent.
func (m stealMark) pct() float64 {
	now := markSteal()
	if now.total <= m.total {
		return 0
	}
	return 100 * float64(now.steal-m.steal) / float64(now.total-m.total)
}

// quieter marks the items that ran with no more CPU steal than the
// median item. On a shared host the hypervisor steals CPU in bursts of a
// second or so; work it hits runs up to twice as slow for reasons outside
// the program, and keeping the quieter half keeps the end-to-end metrics
// about the program.
func quieter(stealPcts []float64) []bool {
	limit := median(stealPcts)
	keep := make([]bool, len(stealPcts))
	for i, v := range stealPcts {
		keep[i] = v <= limit
	}
	return keep
}

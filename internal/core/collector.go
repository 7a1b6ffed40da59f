// Package core implements the paper's primary contribution: the online disk
// I/O workload characterization service. A Collector attaches to one virtual
// disk's vSCSI fast path and maintains the full set of histograms from the
// paper — I/O length, seek distance (plus the windowed variant that
// disentangles interleaved sequential streams), outstanding I/Os, device
// latency and inter-arrival time — each broken down by all/reads/writes,
// in O(1) time and O(m) space per command (§3).
//
// Every Collector method is safe for concurrent use: OnIssue/OnComplete may
// run from several issuing goroutines while other goroutines call Snapshot,
// Enable, Disable and Reset. Histogram inserts and counters are lock-free
// atomics; only the stream-correlated state (previous command's end block,
// the windowed-seek ring, previous arrival time) takes a short per-collector
// mutex, so the fast path stays O(1) with one uncontended lock per command.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// DefaultWindow is the look-behind window for the windowed seek-distance
// histogram. "The parameter N is set to 16 by default." (§3.1)
const DefaultWindow = 16

// Collector gathers online histograms for a single virtual disk. It
// implements vscsi.Observer; attach it with Disk.AddObserver.
//
// A disabled collector costs one predictable branch per command ("the
// processor's branch predictor ensures that they don't create overhead when
// turned off") and holds no histogram memory ("our histogram data structures
// are dynamically created as needed").
type Collector struct {
	vm, disk string
	window   int
	enabled  atomic.Bool
	// h is the live histogram set. It is swapped atomically by Enable
	// (nil -> fresh) and Reset (old -> fresh), so an OnIssue or Snapshot
	// that loaded the pointer keeps working against a consistent set even
	// if a Reset lands mid-command.
	h atomic.Pointer[histSet]
	// self is the collector's self-telemetry (see selfstats.go): counters
	// and a sampled ns/observe histogram that make the paper's Table 2
	// overhead a live metric. It survives Reset.
	self *selfStats
}

// histSet is the dynamically allocated state, created on first Enable.
type histSet struct {
	ioLength     [3]*histogram.Histogram // indexed by opClass
	seekDistance [3]*histogram.Histogram
	seekWindowed *histogram.Histogram
	outstanding  [3]*histogram.Histogram
	latency      [3]*histogram.Histogram
	interarrival [3]*histogram.Histogram

	// streamMu guards the stream-correlated fields below (and only those):
	// they relate consecutive commands, so two issuing goroutines must
	// observe each other's updates in a consistent order. Histogram inserts
	// and the counters stay lock-free.
	streamMu sync.Mutex
	// lastEnd is the last logical block of the previous I/O (§3.1: "an
	// unsigned 64-bit memory location per virtual disk").
	lastEnd  uint64
	haveLast bool
	// recent is the circular array of the last-window request end blocks
	// used for the windowed seek-distance histogram.
	recent    []uint64
	recentLen int
	recentPos int
	// lastArrival is the issue time of the previous command (§3.2: "we
	// record the processor cycle counter value at the time of every
	// received I/O").
	lastArrival simclock.Time
	haveArrival bool

	commands   atomic.Int64
	reads      atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	errors     atomic.Int64
}

// op classes index the per-metric histogram triples.
const (
	classAll = iota
	classRead
	classWrite
)

// NewCollector creates a disabled collector for the named disk with the
// default look-behind window.
func NewCollector(vm, disk string) *Collector {
	return NewCollectorWindow(vm, disk, DefaultWindow)
}

// NewCollectorWindow creates a disabled collector with an explicit windowed
// seek-distance look-behind of n (n >= 1).
func NewCollectorWindow(vm, disk string, n int) *Collector {
	if n < 1 {
		panic("core: window must be >= 1")
	}
	return &Collector{vm: vm, disk: disk, window: n, self: newSelfStats()}
}

// VM and Disk identify the virtual disk being characterized.
func (c *Collector) VM() string   { return c.vm }
func (c *Collector) Disk() string { return c.disk }

// Window returns the windowed seek-distance look-behind size.
func (c *Collector) Window() int { return c.window }

// Enabled reports whether the service is currently recording.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// Enable turns the service on, allocating histograms on first use.
// Histograms persist across Disable/Enable cycles until Reset. Enable is
// idempotent under concurrent calls: when two goroutines race on the first
// allocation, exactly one histSet wins and the loser's is discarded, so no
// accumulated data is ever dropped by a duplicate Enable.
func (c *Collector) Enable() {
	if c.h.Load() == nil {
		c.h.CompareAndSwap(nil, newHistSet(c.window))
	}
	c.enabled.Store(true)
}

// Disable stops recording without discarding accumulated data.
func (c *Collector) Disable() { c.enabled.Store(false) }

// Reset discards all accumulated data and per-stream state. The swap is
// atomic: in-flight OnIssue/OnComplete calls that already loaded the old set
// finish against it (their samples vanish with it), and snapshot readers see
// either the complete old set or the fresh one — never a half-built set.
func (c *Collector) Reset() {
	for {
		old := c.h.Load()
		if old == nil {
			return
		}
		if c.h.CompareAndSwap(old, newHistSet(c.window)) {
			return
		}
	}
}

// BreakStream forgets the stream-correlated state — the previous command's
// end block, the windowed-seek ring and the previous arrival time — without
// touching any histogram. It marks a discontinuity in the command stream: a
// virtual disk handed off between hosts (vMotion), a collector adopted by a
// new owner, or two per-host substreams being compared against one merged
// stream. The next command contributes no seek, windowed-seek or
// inter-arrival sample, exactly as a fresh collector's first command does,
// which is what makes Aggregate over per-host snapshots bin-exact against
// one collector observing the concatenated stream.
func (c *Collector) BreakStream() {
	h := c.h.Load()
	if h == nil {
		return
	}
	h.streamMu.Lock()
	h.haveLast = false
	h.recentLen = 0
	h.recentPos = 0
	h.haveArrival = false
	h.streamMu.Unlock()
}

func newHistSet(window int) *histSet {
	h := &histSet{recent: make([]uint64, window)}
	for class, suffix := range [...]string{"", " (Reads)", " (Writes)"} {
		h.ioLength[class] = histogram.NewIOLength("I/O Length Histogram" + suffix)
		h.seekDistance[class] = histogram.NewSeekDistance("Seek Distance Histogram" + suffix)
		h.outstanding[class] = histogram.NewOutstanding("Outstanding I/Os Histogram" + suffix)
		h.latency[class] = histogram.NewLatency("I/O Latency Histogram" + suffix)
		h.interarrival[class] = histogram.NewInterarrival("I/O Interarrival Histogram" + suffix)
	}
	h.seekWindowed = histogram.NewSeekDistance("Seek Distance Histogram (Windowed)")
	return h
}

var (
	_ vscsi.Observer      = (*Collector)(nil)
	_ vscsi.BatchObserver = (*Collector)(nil)
)

// OnIssue records the arrival-side metrics: length, seek distance (plain and
// windowed), outstanding I/Os and inter-arrival time. Non-I/O SCSI commands
// (INQUIRY, TEST UNIT READY, …) are invisible to the workload histograms.
func (c *Collector) OnIssue(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	cmd := r.Cmd
	if !cmd.Op.IsBlockIO() {
		return
	}
	n := c.self.observations.Add(1)
	sampled := n&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(1)
		return
	}
	class := classRead
	if cmd.Op.IsWrite() {
		class = classWrite
	}
	h.commands.Add(1)
	if class == classRead {
		h.reads.Add(1)
		h.readBytes.Add(cmd.Bytes())
	} else {
		h.writes.Add(1)
		h.writeBytes.Add(cmd.Bytes())
	}

	// I/O length (§3.2).
	h.ioLength[classAll].Insert(cmd.Bytes())
	h.ioLength[class].Insert(cmd.Bytes())

	// Outstanding I/Os at arrival (§3.3).
	oio := int64(r.OutstandingAtIssue)
	h.outstanding[classAll].Insert(oio)
	h.outstanding[class].Insert(oio)

	// The stream-correlated metrics relate this command to its predecessors,
	// so their state updates form one critical section; the derived samples
	// are inserted after release to keep it short. TryLock first so a
	// collision between issuing goroutines — the fast path's only blocking
	// point — shows up in the self-telemetry.
	if !h.streamMu.TryLock() {
		c.self.contended.Add(1)
		h.streamMu.Lock()
	}
	// Seek distance: first block of this I/O minus last block of the
	// previous I/O, preserved signed to expose reverse scans (§3.1).
	seek, haveSeek := int64(0), h.haveLast
	if haveSeek {
		seek = int64(cmd.LBA) - int64(h.lastEnd)
	}
	// Windowed variant: minimum-magnitude distance to any of the last N
	// I/Os, sign preserved (§3.1).
	wseek, haveWseek := int64(0), h.recentLen > 0
	for i := 0; i < h.recentLen; i++ {
		d := int64(cmd.LBA) - int64(h.recent[i])
		if i == 0 || abs64(d) < abs64(wseek) {
			wseek = d
		}
	}
	h.lastEnd = cmd.LastLBA()
	h.haveLast = true
	h.recent[h.recentPos] = cmd.LastLBA()
	h.recentPos = (h.recentPos + 1) % len(h.recent)
	if h.recentLen < len(h.recent) {
		h.recentLen++
	}
	// Inter-arrival time in microseconds (§3.2).
	inter, haveInter := int64(0), h.haveArrival
	if haveInter {
		inter = (r.IssueTime - h.lastArrival).Micros()
	}
	h.lastArrival = r.IssueTime
	h.haveArrival = true
	h.streamMu.Unlock()

	if haveSeek {
		h.seekDistance[classAll].Insert(seek)
		h.seekDistance[class].Insert(seek)
	}
	if haveWseek {
		h.seekWindowed.Insert(wseek)
	}
	if haveInter {
		h.interarrival[classAll].Insert(inter)
		h.interarrival[class].Insert(inter)
	}

	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}

// burstStage is one burst's staging area: a histogram.Stage per workload
// histogram. Bursts take one from burstStages, stage every sample in plain
// memory, publish, and return it, so concurrent bursts on one collector
// never share staging memory and a collector carries none of its own.
type burstStage struct {
	ioLength, seekDistance, outstanding, latency, interarrival [3]histogram.Stage
	seekWindowed                                               histogram.Stage
}

var burstStages = sync.Pool{New: func() any { return new(burstStage) }}

// beginIssue binds the issue-side stages to h's histograms.
func (b *burstStage) beginIssue(h *histSet) {
	for class := range b.ioLength {
		b.ioLength[class].Begin(h.ioLength[class])
		b.seekDistance[class].Begin(h.seekDistance[class])
		b.outstanding[class].Begin(h.outstanding[class])
		b.interarrival[class].Begin(h.interarrival[class])
	}
	b.seekWindowed.Begin(h.seekWindowed)
}

// publishIssue publishes the issue-side stages.
func (b *burstStage) publishIssue() {
	for class := range b.ioLength {
		b.ioLength[class].Publish()
		b.seekDistance[class].Publish()
		b.outstanding[class].Publish()
		b.interarrival[class].Publish()
	}
	b.seekWindowed.Publish()
}

// burstSampled reports whether a burst that raised the observation count
// to obs by n crossed a 1-in-64 boundary. Such a burst is timed and records
// its mean cost per command — the same sampling rate as the per-command
// path.
func burstSampled(obs, n int64) bool { return obs>>6 != (obs-n)>>6 }

// countBlockIO returns how many of rs are block I/O.
func countBlockIO(rs []*vscsi.Request) int64 {
	var n int64
	for _, r := range rs {
		if r.Cmd.Op.IsBlockIO() {
			n++
		}
	}
	return n
}

// OnIssueBatch records the arrival-side metrics for a burst of commands
// issued at one instant (vscsi.BatchObserver). It is sample-for-sample
// equivalent to calling OnIssue once per request in order — the property
// the bit-exactness tests pin — but amortizes the per-command overheads
// across the burst: samples are staged in plain memory and published with
// one atomic add per touched bin (histogram.Stage), the counters become
// one atomic add per counter, the observer dispatch is one call, and the
// stream mutex (the fast path's only blocking point) is taken once instead
// of once per command.
func (c *Collector) OnIssueBatch(rs []*vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	nBlock := countBlockIO(rs)
	if nBlock == 0 {
		return
	}
	sampled := burstSampled(c.self.observations.Add(nBlock), nBlock)
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(nBlock)
		return
	}
	st := burstStages.Get().(*burstStage)
	st.beginIssue(h)

	var reads, writes, readBytes, writeBytes int64
	for _, r := range rs {
		cmd := r.Cmd
		if !cmd.Op.IsBlockIO() {
			continue
		}
		n := cmd.Bytes()
		class := classRead
		if cmd.Op.IsWrite() {
			class = classWrite
			writes++
			writeBytes += n
		} else {
			reads++
			readBytes += n
		}
		st.ioLength[classAll].AddAt(st.ioLength[class].Add(n), n)
		oio := int64(r.OutstandingAtIssue)
		st.outstanding[classAll].AddAt(st.outstanding[class].Add(oio), oio)
	}

	// One critical section for the whole burst: walk the commands in issue
	// order, advancing the stream state and staging each derived sample.
	if !h.streamMu.TryLock() {
		c.self.contended.Add(1)
		h.streamMu.Lock()
	}
	for _, r := range rs {
		cmd := r.Cmd
		if !cmd.Op.IsBlockIO() {
			continue
		}
		class := classRead
		if cmd.Op.IsWrite() {
			class = classWrite
		}
		if h.haveLast {
			seek := int64(cmd.LBA) - int64(h.lastEnd)
			st.seekDistance[classAll].AddAt(st.seekDistance[class].Add(seek), seek)
		}
		if h.recentLen > 0 {
			st.seekWindowed.Add(nearest(int64(cmd.LBA), h.recent[:h.recentLen]))
		}
		h.lastEnd = cmd.LastLBA()
		h.haveLast = true
		h.recent[h.recentPos] = cmd.LastLBA()
		if h.recentPos++; h.recentPos == len(h.recent) {
			h.recentPos = 0
		}
		if h.recentLen < len(h.recent) {
			h.recentLen++
		}
		if h.haveArrival {
			inter := (r.IssueTime - h.lastArrival).Micros()
			st.interarrival[classAll].AddAt(st.interarrival[class].Add(inter), inter)
		}
		h.lastArrival = r.IssueTime
		h.haveArrival = true
	}
	h.streamMu.Unlock()

	st.publishIssue()
	burstStages.Put(st)
	h.commands.Add(nBlock)
	if reads > 0 {
		h.reads.Add(reads)
		h.readBytes.Add(readBytes)
	}
	if writes > 0 {
		h.writes.Add(writes)
		h.writeBytes.Add(writeBytes)
	}

	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds() / nBlock)
	}
}

// OnCompleteBatch records device latency and error counts for a burst of
// completions. It is sample-for-sample equivalent to calling OnComplete
// once per request, with the latency samples staged and published like
// OnIssueBatch's.
func (c *Collector) OnCompleteBatch(rs []*vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	nBlock := countBlockIO(rs)
	if nBlock == 0 {
		return
	}
	sampled := burstSampled(c.self.observations.Add(nBlock), nBlock)
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(nBlock)
		return
	}
	st := burstStages.Get().(*burstStage)
	for class := range st.latency {
		st.latency[class].Begin(h.latency[class])
	}
	var errs int64
	for _, r := range rs {
		if !r.Cmd.Op.IsBlockIO() {
			continue
		}
		if r.Status != scsi.StatusGood {
			errs++
			continue
		}
		lat := r.Latency().Micros()
		class := classRead
		if r.Cmd.Op.IsWrite() {
			class = classWrite
		}
		st.latency[classAll].AddAt(st.latency[class].Add(lat), lat)
	}
	for class := range st.latency {
		st.latency[class].Publish()
	}
	burstStages.Put(st)
	if errs > 0 {
		h.errors.Add(errs)
	}
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds() / nBlock)
	}
}

// OnComplete records device latency (§3.5) and error counts.
func (c *Collector) OnComplete(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	if !r.Cmd.Op.IsBlockIO() {
		return
	}
	n := c.self.observations.Add(1)
	sampled := n&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(1)
		return
	}
	if r.Status != scsi.StatusGood {
		h.errors.Add(1)
	} else {
		lat := r.Latency().Micros()
		h.latency[classAll].Insert(lat)
		if r.Cmd.Op.IsWrite() {
			h.latency[classWrite].Insert(lat)
		} else {
			h.latency[classRead].Insert(lat)
		}
	}
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}

// nearest returns the signed distance from lba to the closest of recent
// (non-empty), the earliest entry winning a tie — the windowed seek
// distance of §3.1, as OnIssue computes it.
func nearest(lba int64, recent []uint64) int64 {
	dist := lba - int64(recent[0])
	best := abs64(dist)
	for _, end := range recent[1:] {
		d := lba - int64(end)
		if a := abs64(d); a < best {
			dist, best = d, a
		}
	}
	return dist
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

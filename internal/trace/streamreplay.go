package trace

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// This file is the streaming replacement for the materialize-and-sort core
// of Replay. The paper's closing claim — "whether calculating online or
// replaying a trace, the resulting CPU cost is O(n)" — does not survive a
// global sort.SliceStable over 2·n events, and the O(n) transient memory
// does not survive a multi-gigabyte trace at all. The engine here replays
// from any RecordSource in one pass with O(workers·batch + mergeWindow)
// resident memory:
//
//   - ReplayParallel parses ahead on a goroutine of its own (readAhead),
//     demultiplexes the stream into per-(VM, disk) substreams, fans them
//     out across a worker pool (a disk sticks to one worker, so per-disk
//     issue order — the only order the collector's stream-correlated
//     metrics depend on — is preserved without locks), and drives each
//     disk's own collector through the batched OnIssueBatch and
//     OnCompleteBatch fast paths. Per-VM and cluster views merge
//     bin-exactly via core.Aggregate, exactly like the live registry
//     rollups.
//   - ReplayMerged reproduces the legacy single-collector semantics (all
//     substreams interleaved into one command stream) by running the
//     k-way MergeSource in front of one collector — O(n log k) in place
//     of O(n log n), with bounded lookahead in place of materializing the
//     trace.
//
// Replay order and bin-exactness: the collector's issue-side metrics
// depend only on the relative order of OnIssue calls within one collector,
// and OnComplete shares no state with OnIssue (latency is carried by the
// record, errors are a counter). So completions may be delivered with
// their record's batch rather than interleaved by completion timestamp,
// and per-disk collectors may progress independently: the histograms are
// bit-identical to the legacy event-sorted replay. The property tests in
// streamreplay_test.go pin both equalities across every metric, class and
// worker count.

// ReplayConfig tunes the streaming replay engine. The zero value takes
// every documented default.
type ReplayConfig struct {
	// Workers is the fan-out of ReplayParallel (default GOMAXPROCS).
	// Substreams are assigned to workers round-robin in first-seen order,
	// so any worker count produces bit-identical histograms.
	Workers int
	// BatchSize is the burst pushed per OnIssueBatch call (default 512).
	BatchSize int
	// QueueDepth is the number of batches buffered per worker (default 8).
	// Resident replay memory is O((Workers · QueueDepth + readAheadDepth)
	// · BatchSize).
	QueueDepth int
	// Window is the collectors' windowed seek-distance look-behind
	// (default core.DefaultWindow).
	Window int
	// MergeWindow controls the k-way issue-order merge lookahead:
	// 0 applies the entry point's default (ReplayMerged merges with
	// DefaultMergeWindow; ReplayParallel trusts per-disk capture order and
	// does not merge), > 0 forces a merge with that lookahead, < 0
	// disables merging entirely.
	MergeWindow int
	// Registry, if non-nil, has each per-disk collector Registered as it
	// is created, so a live httpstats handler can scrape a replay in
	// flight. ReplayParallel only.
	Registry *core.Registry
	// Progress, if non-nil, is called from the demultiplexing goroutine
	// every ProgressEvery records (default 1<<20) with the running count.
	Progress      func(records uint64)
	ProgressEvery uint64
}

func (cfg ReplayConfig) withDefaults() ReplayConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 512
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = core.DefaultWindow
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 1 << 20
	}
	return cfg
}

// ReplayStats summarizes one streaming replay.
type ReplayStats struct {
	// Records is the number of records consumed from the source.
	Records uint64
	// Disks is the number of distinct (VM, disk) substreams seen.
	Disks int
	// Batches is the number of OnIssueBatch bursts pushed.
	Batches uint64
	// OrderViolations counts records that arrived out of issue order
	// within their substream (or, with a merge, past the lookahead
	// window). The replay still completes; the stream-correlated
	// histograms of the affected disk may differ from a sorted replay.
	OrderViolations uint64
}

// ReplayResult is the outcome of ReplayParallel: one collector per
// (VM, disk) substream, in first-seen order.
type ReplayResult struct {
	Stats ReplayStats
	cols  []*core.Collector
}

// Collectors returns the per-disk collectors in first-seen order.
func (r *ReplayResult) Collectors() []*core.Collector { return r.cols }

// Merged returns the cluster-wide rollup of every replayed disk, merged
// bin-exactly via core.Aggregate (nil if the trace was empty).
func (r *ReplayResult) Merged() *core.Snapshot {
	snaps := make([]*core.Snapshot, 0, len(r.cols))
	for _, c := range r.cols {
		if s := c.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return core.Aggregate("*", "*", snaps...)
}

// VMSnapshot merges the replayed disks of one VM (nil if it has none).
func (r *ReplayResult) VMSnapshot(vm string) *core.Snapshot {
	var snaps []*core.Snapshot
	for _, c := range r.cols {
		if c.VM() != vm {
			continue
		}
		if s := c.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return core.Aggregate(vm, "*", snaps...)
}

// fillRequest rebuilds the vSCSI request a record describes, exactly as
// the legacy replay did.
func fillRequest(q *vscsi.Request, rec *Record) {
	q.ID = rec.Seq
	q.VM = rec.VM
	q.Disk = rec.Disk
	q.Cmd = scsi.Command{Op: rec.Op, LBA: rec.LBA, Blocks: rec.Blocks}
	q.IssueTime = simclock.Time(rec.IssueMicros) * simclock.Microsecond
	q.CompleteTime = simclock.Time(rec.CompleteMicros) * simclock.Microsecond
	q.OutstandingAtIssue = int(rec.Outstanding)
	q.Status = rec.Status
}

// reqSlab is a reusable batch of requests: records are transcribed into
// the slab, issued as one burst, then completed. The slab never escapes
// its owner, so a replay allocates requests once per worker, not once per
// record.
type reqSlab struct {
	reqs []vscsi.Request
	ptrs []*vscsi.Request
}

func newReqSlab(n int) *reqSlab {
	s := &reqSlab{reqs: make([]vscsi.Request, n), ptrs: make([]*vscsi.Request, n)}
	for i := range s.reqs {
		s.ptrs[i] = &s.reqs[i]
	}
	return s
}

// replay pushes recs through col as one burst: issues batched, then the
// matching completions batched.
func (s *reqSlab) replay(col *core.Collector, recs []Record) {
	if len(recs) > len(s.reqs) {
		*s = *newReqSlab(len(recs))
	}
	n := len(recs)
	for i := range recs {
		fillRequest(s.ptrs[i], &recs[i])
	}
	col.OnIssueBatch(s.ptrs[:n])
	col.OnCompleteBatch(s.ptrs[:n])
}

// ReplayMerged feeds a trace through one collector with the legacy
// single-stream semantics — every substream interleaved in global issue
// order — using the k-way streaming merge and the batched issue path. It
// is bin-exact against Replay for every metric and class, in O(n log k)
// time and O(mergeWindow + batch) memory.
func ReplayMerged(src RecordSource, col *core.Collector, cfg ReplayConfig) (ReplayStats, error) {
	cfg = cfg.withDefaults()
	var stats ReplayStats
	var merge *MergeSource
	if cfg.MergeWindow >= 0 {
		merge = NewMergeSource(src, cfg.MergeWindow)
		src = merge
	}
	col.Enable()
	slab := newReqSlab(cfg.BatchSize)
	batch := make([]Record, 0, cfg.BatchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		slab.replay(col, batch)
		stats.Batches++
		batch = batch[:0]
	}
	seen := make(map[diskKey]struct{})
	for {
		batch = batch[:len(batch)+1]
		err := src.Next(&batch[len(batch)-1])
		if err != nil {
			batch = batch[:len(batch)-1]
			flush()
			if merge != nil {
				stats.OrderViolations = merge.Violations()
			}
			stats.Disks = len(seen)
			if err == io.EOF {
				return stats, nil
			}
			return stats, err
		}
		rec := &batch[len(batch)-1]
		seen[diskKey{rec.VM, rec.Disk}] = struct{}{}
		stats.Records++
		if cfg.Progress != nil && stats.Records%cfg.ProgressEvery == 0 {
			cfg.Progress(stats.Records)
		}
		if len(batch) == cfg.BatchSize {
			flush()
		}
	}
}

// readAheadDepth is the number of record batches the read-ahead stage
// cycles between the parsing goroutine and the demultiplexer: enough for
// the parser to fill one batch while the demultiplexer drains another,
// with slack for a burst of slow lines.
const readAheadDepth = 4

// aheadBatch is one batch of parsed records handed from the read-ahead
// goroutine to the demultiplexer. err, if set, is the source error that
// ended the stream right after recs (io.EOF at a clean end).
type aheadBatch struct {
	buf  []Record
	recs []Record
	err  error
	free chan<- *aheadBatch
}

// release returns the batch to the read-ahead goroutine for refilling.
func (b *aheadBatch) release() { b.free <- b }

// readAhead drains src on a goroutine of its own into readAheadDepth
// recycled batches of n records, so parsing overlaps demultiplexing and
// observing. Batches arrive in source order; the last one carries the
// source's terminal error, and the channel closes after it. The consumer
// must release every batch it receives and must drain the channel.
func readAhead(src RecordSource, n int) <-chan *aheadBatch {
	// Both channels hold every batch there is, so no send ever blocks on
	// a full buffer: the parser waits only for a free batch, the consumer
	// only for a full one.
	full := make(chan *aheadBatch, readAheadDepth)
	free := make(chan *aheadBatch, readAheadDepth)
	for i := 0; i < readAheadDepth; i++ {
		free <- &aheadBatch{buf: make([]Record, n), free: free}
	}
	go func() {
		defer close(full)
		for {
			b := <-free
			k := 0
			for ; k < len(b.buf); k++ {
				if b.err = src.Next(&b.buf[k]); b.err != nil {
					break
				}
			}
			b.recs = b.buf[:k]
			full <- b
			if b.err != nil {
				return
			}
		}
	}()
	return full
}

// replayBatch is one burst in flight from the demultiplexer to a worker.
type replayBatch struct {
	col  *core.Collector
	recs []Record
}

// parallelDisk is the demultiplexer's per-substream state.
type parallelDisk struct {
	col       *core.Collector
	worker    int
	batch     *replayBatch
	lastIssue int64
	haveLast  bool
}

// ReplayParallel replays a trace into one collector per (VM, disk)
// substream across a worker pool — the histograms the online service
// would have built had it watched the same commands live. Substreams are
// independent (a collector's stream-correlated state never crosses
// disks), so fan-out changes nothing but wall-clock time: any Workers
// value yields bit-identical collectors. The source is drained on a
// read-ahead goroutine, so src.Next runs concurrently with the caller but
// never with itself. If src fails mid-stream, the result covers exactly
// the records before the failure and the error is returned with it.
func ReplayParallel(src RecordSource, cfg ReplayConfig) (*ReplayResult, error) {
	cfg = cfg.withDefaults()
	var merge *MergeSource
	if cfg.MergeWindow > 0 {
		merge = NewMergeSource(src, cfg.MergeWindow)
		src = merge
	}

	res := &ReplayResult{}
	pool := sync.Pool{New: func() any {
		return &replayBatch{recs: make([]Record, 0, cfg.BatchSize)}
	}}
	chans := make([]chan *replayBatch, cfg.Workers)
	batchCounts := make([]uint64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		chans[w] = make(chan *replayBatch, cfg.QueueDepth)
		wg.Add(1)
		go func(w int, ch <-chan *replayBatch) {
			defer wg.Done()
			slab := newReqSlab(cfg.BatchSize)
			var n uint64
			for b := range ch {
				slab.replay(b.col, b.recs)
				n++
				b.recs = b.recs[:0]
				b.col = nil
				pool.Put(b)
			}
			batchCounts[w] = n
		}(w, chans[w])
	}

	disks := make(map[diskKey]*parallelDisk)
	dispatch := func(d *parallelDisk) {
		chans[d.worker] <- d.batch
		d.batch = nil
	}
	var srcErr error
	for ahead := range readAhead(src, cfg.BatchSize) {
		for i := range ahead.recs {
			rec := &ahead.recs[i]
			key := diskKey{rec.VM, rec.Disk}
			d := disks[key]
			if d == nil {
				col := core.NewCollectorWindow(rec.VM, rec.Disk, cfg.Window)
				col.Enable()
				if cfg.Registry != nil {
					cfg.Registry.Register(col)
				}
				d = &parallelDisk{col: col, worker: len(res.cols) % cfg.Workers}
				disks[key] = d
				res.cols = append(res.cols, col)
			}
			if d.haveLast && rec.IssueMicros < d.lastIssue {
				res.Stats.OrderViolations++
			} else {
				d.lastIssue = rec.IssueMicros
				d.haveLast = true
			}
			if d.batch == nil {
				b := pool.Get().(*replayBatch)
				b.col = d.col
				d.batch = b
			}
			d.batch.recs = append(d.batch.recs, *rec)
			if len(d.batch.recs) == cfg.BatchSize {
				dispatch(d)
			}
			res.Stats.Records++
			if cfg.Progress != nil && res.Stats.Records%cfg.ProgressEvery == 0 {
				cfg.Progress(res.Stats.Records)
			}
		}
		if ahead.err != nil && ahead.err != io.EOF {
			srcErr = ahead.err
		}
		ahead.release()
	}
	for _, d := range disks {
		if d.batch != nil && len(d.batch.recs) > 0 {
			dispatch(d)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, n := range batchCounts {
		res.Stats.Batches += n
	}
	if merge != nil {
		res.Stats.OrderViolations += merge.Violations()
	}
	res.Stats.Disks = len(res.cols)
	if srcErr != nil {
		return res, fmt.Errorf("trace: replay stopped after %d records: %w", res.Stats.Records, srcErr)
	}
	return res, nil
}

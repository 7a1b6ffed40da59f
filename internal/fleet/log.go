package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/fleetobs"
)

// The segment log is the aggregator's durability layer: every accepted wire
// frame — fulls and deltas alike — is appended, verbatim re-encoding, to a
// per-shard chain of segment files under the data dir:
//
//	<dir>/shard-0007/0000000000000003.seg
//
// A segment is nothing but concatenated wire frames (the codec is
// length-prefixed, so frames concatenate cleanly on one stream); there is
// no index, no checksum block, no manifest. Everything the log needs is
// already in the frames: ordering is append order, per-host sequencing is
// the batch Seq, and time is the batch SentUnixNano. Replaying a shard's
// segments in numeric order through the aggregator's strict apply rules
// (fulls never roll back, deltas apply only on their exact base)
// reconstructs each host's newest-full-plus-deltas state exactly.
//
// Failure semantics, in replay order per segment chain:
//
//   - a frame that ends early (EOF inside head/header/payload —
//     ErrTruncatedFrame) in the LAST segment is a torn tail: the crash
//     landed mid-write. The file is truncated back to the last whole frame
//     and the log continues from there.
//   - the same condition in any earlier segment, or any non-truncation
//     decode failure anywhere (bad magic, bad gzip, bad JSON), is
//     corruption: the log refuses to open rather than serve wrong numbers.
//   - a delta that cannot apply (its base fell to retention or compaction)
//     is skipped with a counter — the information is gone, not wrong.
//   - *.tmp files (compaction interrupted before its atomic rename) are
//     deleted on open; the segments they would have replaced are intact.
//   - a compaction interrupted after the rename but before the old
//     segments were deleted leaves duplicates: old frames replay first,
//     the compacted fulls (highest segment number, newest sequences)
//     replay last and win under the no-rollback rule.
//
// Appends are fsync-batched: a write syncs only when syncInterval has
// passed since the last sync (every append when syncInterval < 0). A
// kill -9 loses nothing regardless — written bytes survive process death
// in the page cache — the batching only bounds what a power failure can
// take, and the torn-tail rule cleans up whatever a partial sector flush
// leaves behind.
const (
	segSuffix = ".seg"
	tmpSuffix = ".tmp"

	defaultSegmentBytes    = 4 << 20
	defaultSyncInterval    = 100 * time.Millisecond
	defaultCompactSegments = 8
)

// logConfig is the segment log's tuning, extracted from AggregatorConfig.
type logConfig struct {
	dir             string
	segmentBytes    int64
	syncInterval    time.Duration
	retention       time.Duration
	compactSegments int
	// obs receives fsync/compaction latency samples and structural events
	// (rotation, retention, compaction, torn tail); nil disables both.
	obs *fleetobs.Tracker
}

// segmentInfo describes one segment file.
type segmentInfo struct {
	num    uint64
	path   string
	bytes  int64
	frames int64
	// newest is the max SentUnixNano of any frame in the segment — the
	// clock retention compares against.
	newest int64
}

// logShard is one shard's segment chain. Its mutex orders appends,
// rotation and compaction; reads (history scans) only take it long enough
// to copy the current path list.
type logShard struct {
	mu       sync.Mutex
	dirIdx   int
	dir      string
	sealed   []segmentInfo
	active   segmentInfo
	f        *os.File // nil until the first append after open/rotation
	lastSync time.Time
}

// segmentLog is the aggregator's crash-safe frame store: one logShard per
// aggregator shard, plus any orphan shard dirs left by a previous run with
// a different shard count (replayed, then compacted away).
type segmentLog struct {
	cfg    logConfig
	shards []*logShard // indexed by current shard id
	// orphans are shard dirs on disk beyond the configured shard count.
	// Their frames replay like any others (routing is by host hash, not by
	// dir); after replay the aggregator rewrites every host's state into
	// its current home and removes them.
	orphans []*logShard

	appends     atomic.Int64
	appendBytes atomic.Int64
	appendErrs  atomic.Int64
	fsyncs      atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
	retired     atomic.Int64
	replayed    atomic.Int64
	tornTails   atomic.Int64
}

func (c logConfig) withDefaults() logConfig {
	if c.segmentBytes <= 0 {
		c.segmentBytes = defaultSegmentBytes
	}
	if c.syncInterval == 0 {
		c.syncInterval = defaultSyncInterval
	}
	if c.compactSegments == 0 {
		c.compactSegments = defaultCompactSegments
	}
	return c
}

func shardDirName(idx int) string { return fmt.Sprintf("shard-%04d", idx) }

func segPath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d%s", num, segSuffix))
}

// openSegmentLog prepares the on-disk layout: the shard dirs exist, every
// segment is listed (sizes come later, from replay), and stray *.tmp files
// from an interrupted compaction are gone. No frame is read here — replay
// does that, because reading and applying are one pass.
func openSegmentLog(cfg logConfig, shards int) (*segmentLog, error) {
	cfg = cfg.withDefaults()
	l := &segmentLog{cfg: cfg, shards: make([]*logShard, shards)}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: log dir: %w", err)
	}
	for i := range l.shards {
		sh, err := openLogShard(filepath.Join(cfg.dir, shardDirName(i)), i)
		if err != nil {
			return nil, err
		}
		l.shards[i] = sh
	}
	// Discover orphan dirs from a run with more shards.
	entries, err := os.ReadDir(cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: log dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if err != nil || idx < shards {
			continue
		}
		sh, err := openLogShard(filepath.Join(cfg.dir, e.Name()), idx)
		if err != nil {
			return nil, err
		}
		l.orphans = append(l.orphans, sh)
	}
	sort.Slice(l.orphans, func(i, j int) bool { return l.orphans[i].dirIdx < l.orphans[j].dirIdx })
	return l, nil
}

// openLogShard lists a shard dir's segments (creating the dir if needed)
// and removes leftover *.tmp files. The highest-numbered segment becomes
// the active one; its size and frame count are filled in by replay.
func openLogShard(dir string, idx int) (*logShard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: log shard dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: log shard dir: %w", err)
	}
	sh := &logShard{dirIdx: idx, dir: dir}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// An interrupted compaction never renamed this into place; the
			// segments it would have replaced are still whole.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: log segment %q: bad name", filepath.Join(dir, name))
		}
		sh.sealed = append(sh.sealed, segmentInfo{num: num, path: filepath.Join(dir, name)})
	}
	sort.Slice(sh.sealed, func(i, j int) bool { return sh.sealed[i].num < sh.sealed[j].num })
	if n := len(sh.sealed); n > 0 {
		sh.active = sh.sealed[n-1]
		sh.sealed = sh.sealed[:n-1]
	} else {
		sh.active = segmentInfo{num: 1, path: segPath(dir, 1)}
	}
	return sh, nil
}

// countingReader counts the bytes a decoder actually consumed, so replay
// knows the offset of the last whole frame when the tail turns out torn.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replayStats summarizes one boot replay.
type replayStats struct {
	frames    int64
	tornTails int
}

// replay reads every segment of every shard dir (orphans included) in
// order and hands each decoded batch to apply, tolerating a torn tail on
// each chain's last segment by truncating the file back to the last whole
// frame. Any other decode failure aborts: a log that contradicts its own
// format must not silently become numbers. Segment sizes, frame counts and
// newest-times are (re)established as a side effect — replay is the one
// full read the log ever does.
func (l *segmentLog) replay(apply func(dirIdx int, b *Batch) error) (replayStats, error) {
	var st replayStats
	for _, sh := range append(append([]*logShard(nil), l.shards...), l.orphans...) {
		if err := l.replayShard(sh, &st, apply); err != nil {
			return st, err
		}
	}
	return st, nil
}

func (l *segmentLog) replayShard(sh *logShard, st *replayStats, apply func(int, *Batch) error) error {
	segs := make([]*segmentInfo, 0, len(sh.sealed)+1)
	for i := range sh.sealed {
		segs = append(segs, &sh.sealed[i])
	}
	segs = append(segs, &sh.active)
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := l.replaySegment(sh, seg, last, st, apply); err != nil {
			return err
		}
	}
	return nil
}

func (l *segmentLog) replaySegment(sh *logShard, seg *segmentInfo, last bool, st *replayStats, apply func(int, *Batch) error) error {
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) && last && seg.frames == 0 {
			return nil // a fresh active segment that was never written
		}
		return fmt.Errorf("fleet: log replay: %w", err)
	}
	defer f.Close()
	cr := &countingReader{r: bufio.NewReader(f)}
	var good int64
	for {
		b, err := DecodeBatch(cr)
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrTruncatedFrame) {
			if !last {
				return fmt.Errorf("fleet: log segment %s torn mid-chain (only the newest segment may have a torn tail): %w", seg.path, err)
			}
			// Crash mid-write: everything before the tear is whole.
			if terr := os.Truncate(seg.path, good); terr != nil {
				return fmt.Errorf("fleet: truncating torn tail of %s: %w", seg.path, terr)
			}
			st.tornTails++
			l.tornTails.Add(1)
			l.cfg.obs.Emit(fleetobs.Event{
				Kind: fleetobs.KindTornTail, Scope: "aggregator", Shard: sh.dirIdx,
				Detail: fmt.Sprintf("%s truncated %d -> %d bytes", filepath.Base(seg.path), cr.n, good),
			})
			break
		}
		if err != nil {
			return fmt.Errorf("fleet: log segment %s corrupt: %w", seg.path, err)
		}
		good = cr.n
		seg.frames++
		if b.SentUnixNano > seg.newest {
			seg.newest = b.SentUnixNano
		}
		st.frames++
		l.replayed.Add(1)
		if err := apply(sh.dirIdx, b); err != nil {
			return err
		}
	}
	seg.bytes = good
	return nil
}

// append writes one already-encoded frame to the shard's active segment,
// syncing on the batched fsync schedule and rotating when the segment is
// full. Rotation runs the retention sweep; the returned flag tells the
// aggregator a rotation happened so it can consider compaction. The caller
// serializes per-shard ingest+append ordering (see Aggregator.Ingest) —
// this function's own locking only protects the chain against concurrent
// compaction and scans.
func (l *segmentLog) append(idx int, data []byte, sentUnixNano int64, now time.Time) (rotated bool, err error) {
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		f, err := os.OpenFile(sh.active.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		sh.f = f
		sh.lastSync = now
	}
	if _, err := sh.f.Write(data); err != nil {
		l.appendErrs.Add(1)
		return false, err
	}
	sh.active.bytes += int64(len(data))
	sh.active.frames++
	if sentUnixNano > sh.active.newest {
		sh.active.newest = sentUnixNano
	}
	l.appends.Add(1)
	l.appendBytes.Add(int64(len(data)))
	if l.cfg.syncInterval < 0 || now.Sub(sh.lastSync) >= l.cfg.syncInterval {
		// Fsyncs are already batched (at most one per syncInterval per
		// shard), so every one is observed — no sampling needed.
		start := time.Now()
		if err := sh.f.Sync(); err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		l.fsyncs.Add(1)
		l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: idx})
		sh.lastSync = now
	}
	if sh.active.bytes >= l.cfg.segmentBytes {
		if err := l.rotateLocked(sh); err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		l.sweepLocked(sh, now)
		return true, nil
	}
	return false, nil
}

// rotateLocked seals the active segment (sync + close) and starts the next
// one. Caller holds sh.mu.
func (l *segmentLog) rotateLocked(sh *logShard) error {
	if sh.f != nil {
		start := time.Now()
		if err := sh.f.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
		l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: sh.dirIdx})
		if err := sh.f.Close(); err != nil {
			return err
		}
		sh.f = nil
	}
	sealed := sh.active
	sh.sealed = append(sh.sealed, sealed)
	next := sealed.num + 1
	sh.active = segmentInfo{num: next, path: segPath(sh.dir, next)}
	l.rotations.Add(1)
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindRotation, Scope: "aggregator", Shard: sh.dirIdx,
		Detail: fmt.Sprintf("sealed %016d (%d frames, %d bytes)", sealed.num, sealed.frames, sealed.bytes),
	})
	return nil
}

// sweepLocked drops sealed segments whose newest frame is older than the
// retention horizon. Whole segments only: retention is coarse by design —
// the unit of forgetting is the unit of fsync and replay. Caller holds
// sh.mu.
func (l *segmentLog) sweepLocked(sh *logShard, now time.Time) {
	if l.cfg.retention <= 0 {
		return
	}
	cutoff := now.Add(-l.cfg.retention).UnixNano()
	kept := sh.sealed[:0]
	var removed, removedFrames int64
	for _, seg := range sh.sealed {
		if seg.newest < cutoff {
			os.Remove(seg.path)
			l.retired.Add(1)
			removed++
			removedFrames += seg.frames
			continue
		}
		kept = append(kept, seg)
	}
	sh.sealed = kept
	if removed > 0 {
		l.cfg.obs.Emit(fleetobs.Event{
			Kind: fleetobs.KindRetention, Scope: "aggregator", Shard: sh.dirIdx,
			Detail: fmt.Sprintf("removed %d segments (%d frames) past retention", removed, removedFrames),
		})
	}
}

// needsCompaction reports whether the shard's sealed chain has grown past
// the compaction threshold.
func (l *segmentLog) needsCompaction(idx int) bool {
	if l.cfg.compactSegments < 0 {
		return false
	}
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sealed) >= l.cfg.compactSegments
}

// compact rewrites the shard's whole chain as one segment of full frames —
// one per host, at the host's newest applied state. gather runs under the
// shard's log mutex, so the gathered state provably covers every frame
// already in the chain (ingest updates state before it appends, and
// appends on this shard are excluded while we hold the mutex); a frame
// whose ingest is waiting on the mutex lands in the fresh active segment
// afterwards and replays as a harmless duplicate.
//
// Crash safety is the rename dance: the replacement is written and synced
// as a *.tmp, renamed over the highest-numbered segment (atomic on POSIX),
// and only then are the older segments deleted. Interrupted before the
// rename, the tmp is garbage collected at next open; interrupted after,
// replay sees old frames first and the compacted fulls — newest sequences,
// highest segment number — last, and the no-rollback rule makes the
// duplicates free.
func (l *segmentLog) compact(idx int, gather func() []*Batch, now time.Time) error {
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return l.compactLocked(sh, gather, now)
}

func (l *segmentLog) compactLocked(sh *logShard, gather func() []*Batch, now time.Time) error {
	begin := time.Now()
	batches := gather()
	// Seal the active segment so the whole chain is replaceable.
	if sh.active.frames > 0 || sh.f != nil {
		if err := l.rotateLocked(sh); err != nil {
			return err
		}
	}
	if len(sh.sealed) == 0 && len(batches) == 0 {
		return nil
	}
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindCompactionBegin, Scope: "aggregator", Shard: sh.dirIdx,
		Detail: fmt.Sprintf("%d sealed segments -> %d host fulls", len(sh.sealed), len(batches)),
	})
	target := sh.active.num - 1 // the newest sealed number, or 0 if none
	if len(sh.sealed) == 0 {
		// Nothing sealed but state to persist (boot-time rewrite into a
		// previously empty shard): claim the number below the active one.
		if target == 0 {
			sh.active = segmentInfo{num: 2, path: segPath(sh.dir, 2)}
			target = 1
		}
	}
	targetPath := segPath(sh.dir, target)
	tmpPath := targetPath + tmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	info := segmentInfo{num: target, path: targetPath}
	w := bufio.NewWriter(tmp)
	for _, b := range batches {
		n := &countingWriter{w: w}
		if err := EncodeBatch(n, b); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		info.bytes += n.n
		info.frames++
		if b.SentUnixNano > info.newest {
			info.newest = b.SentUnixNano
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	syncStart := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	l.fsyncs.Add(1)
	l.cfg.obs.ObserveSince(fleetobs.StageFsync, syncStart, fleetobs.Event{Shard: sh.dirIdx})
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, targetPath); err != nil {
		os.Remove(tmpPath)
		return err
	}
	syncDir(sh.dir)
	// The rename is the commit point; everything below is cleanup whose
	// interruption replay tolerates.
	for _, seg := range sh.sealed {
		if seg.num != target {
			os.Remove(seg.path)
		}
	}
	sh.sealed = []segmentInfo{info}
	l.compactions.Add(1)
	d := l.cfg.obs.ObserveSince(fleetobs.StageCompaction, begin, fleetobs.Event{Shard: sh.dirIdx})
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindCompactionCommit, Scope: "aggregator", Shard: sh.dirIdx,
		DurationNanos: int64(d),
		Detail:        fmt.Sprintf("segment %016d: %d frames, %d bytes", info.num, info.frames, info.bytes),
	})
	return nil
}

// removeOrphans deletes shard dirs beyond the configured count. Only safe
// after their state has been rewritten into the current shards' chains.
func (l *segmentLog) removeOrphans() {
	for _, sh := range l.orphans {
		os.RemoveAll(sh.dir)
	}
	l.orphans = nil
}

// scan hands every frame currently in the log to fn, in per-shard segment
// order — the read path behind history queries. It is best-effort against
// concurrent writers: the path list is copied under each shard's mutex,
// but the files are read unlocked, so a segment compacted away mid-scan is
// skipped and a frame being appended right now reads as a torn tail and
// ends that file. Both are safe for history: duplicates and stale fulls
// fall out of the same no-rollback apply rules replay uses.
func (l *segmentLog) scan(fn func(dirIdx int, b *Batch)) {
	for _, sh := range l.shards {
		sh.mu.Lock()
		paths := make([]string, 0, len(sh.sealed)+1)
		for _, seg := range sh.sealed {
			paths = append(paths, seg.path)
		}
		if sh.active.frames > 0 {
			paths = append(paths, sh.active.path)
		}
		dirIdx := sh.dirIdx
		sh.mu.Unlock()
		for _, p := range paths {
			scanSegment(p, dirIdx, fn)
		}
	}
}

func scanSegment(path string, dirIdx int, fn func(int, *Batch)) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		b, err := DecodeBatch(r)
		if err != nil {
			return // EOF, torn tail or mid-compaction swap: stop this file
		}
		fn(dirIdx, b)
	}
}

// segmentCounts returns the live segment count and total bytes.
func (l *segmentLog) segmentCounts() (segments int, bytes int64) {
	for _, sh := range l.shards {
		sh.mu.Lock()
		for _, seg := range sh.sealed {
			segments++
			bytes += seg.bytes
		}
		if sh.active.frames > 0 {
			segments++
			bytes += sh.active.bytes
		}
		sh.mu.Unlock()
	}
	return segments, bytes
}

// close syncs and closes every open segment file.
func (l *segmentLog) close() error {
	var first error
	for _, sh := range l.shards {
		sh.mu.Lock()
		if sh.f != nil {
			start := time.Now()
			if err := sh.f.Sync(); err != nil && first == nil {
				first = err
			} else if err == nil {
				l.fsyncs.Add(1)
				l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: sh.dirIdx})
			}
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// countingWriter counts bytes written through it (compaction's segment
// size bookkeeping).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored: not every filesystem supports it, and the
// rename itself is already ordered against the tmp file's data sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

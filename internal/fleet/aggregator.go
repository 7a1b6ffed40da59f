package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// ErrResyncRequired reports a delta batch the aggregator cannot apply: the
// host is unknown (aggregator restart), the delta's base sequence does not
// match the stored sequence (a dropped batch opened a gap), or the delta
// names a disk with no base state. The HTTP surface maps it to 409; an
// agent that sees it falls back to a full-state push, which always
// succeeds and re-establishes the chain.
var ErrResyncRequired = errors.New("fleet: resync required")

// pullSlots is the number of phase buckets PullLoop spreads watched hosts
// across within one interval.
const pullSlots = 32

// AggregatorConfig tunes a fleet aggregator. Zero values take the
// documented defaults.
type AggregatorConfig struct {
	// StaleAfter is the liveness horizon: a host whose newest batch is
	// older than this drops out of the merged views and is reported stale
	// (default 10s; set it to a small multiple of the agents' push
	// interval).
	StaleAfter time.Duration
	// Shards splits the host space into independent slices by consistent
	// host-name hash (default 16, clamped to [1, 4096]). Each shard has
	// its own lock, host map and merge cache, so ingest scales across
	// cores and a scrape re-merges only the shards that changed. Shards=1
	// reproduces the former single-mutex aggregator.
	Shards int
	// DisableMergeCache turns off per-shard merge memoization. The cache
	// is bin-exact, so this exists only for benchmarks (measuring the
	// uncached cost) and debugging.
	DisableMergeCache bool
	// PullTimeout bounds each scatter-gather pull request (default 2s).
	PullTimeout time.Duration
	// PullConcurrency bounds how many pulls are in flight at once, for
	// PullAll and PullLoop both (default 16). A slow fleet backs pressure
	// up into the pull schedule instead of spawning a goroutine per host.
	PullConcurrency int
	// Client overrides the HTTP client used for pulls.
	Client *http.Client

	// DataDir, when set, enables the segment log: every state-changing
	// batch is appended to per-shard segment files under this directory,
	// and OpenAggregator replays them on boot so a restart recovers the
	// fleet without waiting for agents to resync. Empty (the default)
	// keeps the aggregator memory-only.
	DataDir string
	// Retention drops sealed log segments whose newest frame is older
	// than this, swept at each segment rotation (default 0: keep
	// everything). The unit of forgetting is a whole segment, so history
	// reaches back at least Retention and at most Retention plus one
	// segment's span.
	Retention time.Duration
	// SyncInterval batches log fsyncs: an append syncs only when this
	// much time passed since the last sync (default 100ms; negative
	// syncs every append). Process death loses nothing either way —
	// written bytes survive in the page cache — the interval only bounds
	// the window a power failure can take.
	SyncInterval time.Duration
	// SegmentBytes rotates the active log segment once it reaches this
	// size (default 4 MiB).
	SegmentBytes int64
	// CompactSegments rewrites a shard's log chain as one segment of
	// full frames once its sealed-segment count reaches this (default 8;
	// negative disables compaction).
	CompactSegments int

	// Catalog, when set, is the reference catalog GET /fleet/catalog
	// classifies merged per-VM views against (paper §7 at fleet scope).
	// SetCatalog installs or replaces it on a live aggregator.
	Catalog *analysis.Catalog

	// Obs, when set, receives per-stage latency samples (decode, lock
	// wait, shard ingest, merge recompute, log append, fsync, compaction,
	// replay, history) and structural pipeline events (pushes, resyncs
	// with cause, rotations, retention drops, compaction begin/commit,
	// torn-tail truncations, the replay summary). Hot ingest-path timing
	// is sampled 1-in-N per the tracker's config; events are not. Nil
	// disables aggregator-side observability.
	Obs *fleetobs.Tracker
}

func (c *AggregatorConfig) withDefaults() AggregatorConfig {
	out := *c
	if out.StaleAfter <= 0 {
		out.StaleAfter = 10 * time.Second
	}
	if out.Shards <= 0 {
		out.Shards = 16
	}
	if out.Shards > 4096 {
		out.Shards = 4096
	}
	if out.PullTimeout <= 0 {
		out.PullTimeout = 2 * time.Second
	}
	if out.PullConcurrency <= 0 {
		out.PullConcurrency = 16
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// hostState is the aggregator's record of one host.
type hostState struct {
	host         string
	source       string // "push" or "pull"
	seq          uint64
	sentUnixNano int64
	lastSeen     time.Time
	batches      int64
	snaps        []*core.Snapshot
	// boot is the sender's incarnation (0 for pre-federation senders): a
	// full batch from a different incarnation replaces state even at a
	// lower sequence, and a delta from one is refused with boot-changed.
	boot uint64
	// level and leaves are the sender's federation metadata: its height
	// in the tree and how many leaf hosts its state folds together.
	level  int
	leaves int
}

// Aggregator accepts pushed batches (full or delta), scatter-gathers pulls
// from registered agents, tracks per-host liveness, and merges per-host
// snapshots into per-VM and cluster-wide histograms. Hosts are sharded by
// consistent name hash into independent slices, merged two-level: each
// shard folds its own hosts (memoized until they change), then the shard
// merges fold at the edge — bin-exactness makes the second level free. All
// methods are safe for concurrent use: any number of HTTP goroutines can
// ingest while others read merged views.
type Aggregator struct {
	cfg AggregatorConfig
	// now is the wall clock, injectable for deterministic staleness tests.
	now func() time.Time

	shards []*shard

	// log is the crash-safe segment log, nil when DataDir is unset. iomu
	// serializes {shard ingest, log append} per shard so the log's frame
	// order matches the order states were applied — without it two
	// concurrent batches for one host could apply in one order and land
	// on disk in the other, and a replay of that log would diverge.
	log  *segmentLog
	iomu []sync.Mutex

	pmu   sync.RWMutex
	pulls map[string]string // host -> pull URL

	// catalog is the swappable §7 reference catalog (see catalog.go).
	catalog atomic.Pointer[analysis.Catalog]

	rejected   atomic.Int64
	pullErrors atomic.Int64
	recvBytes  atomic.Int64
	// layoutMismatch counts delta batches refused because their histogram
	// layout failed validation — the one resync cause detected at the
	// aggregator (Validate) rather than in the shard.
	layoutMismatch atomic.Int64
}

// NewAggregator builds an empty aggregator.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	g := &Aggregator{
		cfg:   cfg.withDefaults(),
		now:   time.Now,
		pulls: make(map[string]string),
	}
	g.shards = make([]*shard, g.cfg.Shards)
	for i := range g.shards {
		g.shards[i] = newShard(i, g.cfg.Obs)
	}
	g.iomu = make([]sync.Mutex, g.cfg.Shards)
	g.catalog.Store(cfg.Catalog)
	return g
}

// ReplayStats summarizes one boot replay of the segment log.
type ReplayStats struct {
	// Frames is how many whole frames the log held; Skipped counts the
	// ones that decoded but could not apply (deltas whose base fell to
	// retention or compaction, or frames from an incompatible histogram
	// layout) — lost information, never wrong information.
	Frames  int64 `json:"frames"`
	Skipped int64 `json:"skipped"`
	// TornTails counts segment chains whose last frame was cut short by a
	// crash mid-write and truncated back to the last whole frame.
	TornTails int `json:"torn_tails"`
	// Hosts is how many hosts the replay recovered.
	Hosts int `json:"hosts"`
	// Duration is the wall time the replay took.
	Duration time.Duration `json:"duration_ns"`
}

// OpenAggregator builds an aggregator backed by the segment log under
// cfg.DataDir: existing segments are replayed through the same strict
// apply rules live ingest uses (fulls never roll back, deltas apply only
// on their exact base), a torn tail frame on any chain's newest segment is
// truncated away, and every subsequent state-changing batch is appended.
// Replayed hosts keep their recorded send time as their liveness time, so
// staleness after a restart means what it always means. With an empty
// DataDir this is exactly NewAggregator. Any other decode failure in the
// log — wrong magic, bad compression, mangled JSON — refuses to open
// rather than serve numbers the log contradicts.
func OpenAggregator(cfg AggregatorConfig) (*Aggregator, ReplayStats, error) {
	g := NewAggregator(cfg)
	if g.cfg.DataDir == "" {
		return g, ReplayStats{}, nil
	}
	l, err := openSegmentLog(logConfig{
		dir:             g.cfg.DataDir,
		segmentBytes:    g.cfg.SegmentBytes,
		syncInterval:    g.cfg.SyncInterval,
		retention:       g.cfg.Retention,
		compactSegments: g.cfg.CompactSegments,
		obs:             g.cfg.Obs,
	}, g.cfg.Shards)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	start := time.Now()
	var st ReplayStats
	var lst replayStats
	// Label the replay for pprof so boot-recovery CPU attributes to the
	// pipeline stage, not to an anonymous OpenAggregator frame.
	pprof.Do(context.Background(), pprof.Labels("stage", "replay"), func(context.Context) {
		lst, err = l.replay(func(dirIdx int, b *Batch) error {
			st.Frames++
			if verr := b.Validate(); verr != nil {
				// The frame decoded but its histogram layout is not ours —
				// a log written by a different binary generation. Skip it:
				// the data is unusable here, not evidence of corruption.
				st.Skipped++
				return nil
			}
			if _, ierr := g.shardOf(b.Host).ingest(b, "log", time.Unix(0, b.SentUnixNano)); ierr != nil {
				if errors.Is(ierr, ErrResyncRequired) {
					st.Skipped++
					return nil
				}
				return ierr
			}
			return nil
		})
	})
	if err != nil {
		return nil, ReplayStats{}, err
	}
	st.TornTails = lst.tornTails
	g.log = l
	if len(l.orphans) > 0 {
		// The shard count shrank since the log was written: the orphan
		// dirs' hosts replayed fine (routing is by host hash, never by
		// dir), but their frames must move home. Rewrite every current
		// shard's chain from live state, then drop the orphan dirs.
		if err := g.CompactLog(); err != nil {
			return nil, ReplayStats{}, err
		}
		l.removeOrphans()
	}
	st.Hosts = len(g.Hosts())
	st.Duration = time.Since(start)
	g.cfg.Obs.Observe(fleetobs.StageReplay, st.Duration, fleetobs.Event{Shard: -1})
	g.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindReplay, Scope: "aggregator", Shard: -1,
		DurationNanos: int64(st.Duration),
		Detail: fmt.Sprintf("frames=%d skipped=%d torn_tails=%d hosts=%d",
			st.Frames, st.Skipped, st.TornTails, st.Hosts),
	})
	return g, st, nil
}

// NumShards returns the aggregator's shard count.
func (g *Aggregator) NumShards() int { return len(g.shards) }

// ShardFor returns the shard index the host routes to — FNV-1a of the
// name modulo the shard count, so any party knowing the count computes
// the same answer.
func (g *Aggregator) ShardFor(host string) int {
	return int(shardHash(host) % uint32(len(g.shards)))
}

func (g *Aggregator) shardOf(host string) *shard {
	return g.shards[g.ShardFor(host)]
}

// Ingest records a validated batch as the host's newest state. Full
// batches older than the newest sequence already seen refresh liveness but
// leave the stored snapshots alone, so a late-arriving retry never rolls a
// host backwards. Delta batches apply onto the stored state when their
// base sequence matches exactly and return ErrResyncRequired otherwise.
//
// With a segment log open, every state-changing batch is also appended to
// the host's shard chain, serialized with the apply so disk order matches
// apply order. A log write failure (disk full, I/O error) is counted and
// absorbed rather than failing the ingest: the batch is already applied in
// memory, and an aggregator that keeps serving beats one that refuses the
// fleet because its disk filled.
func (g *Aggregator) Ingest(b *Batch, source string) error {
	// Deterministic per-host sampling (1 in SampleEvery of each host's
	// sequence numbers): stateless, so the tracker costs the memory-path
	// ingest no atomic on unsampled batches.
	return g.ingest(b, source, g.cfg.Obs.SampleAt(b.Seq))
}

// ingest is Ingest with the hot-path sampling decision hoisted out:
// servePush makes one Sample() call covering decode and ingest, so a
// sampled push times every stage of its trip and an unsampled one pays
// nothing beyond the decision itself.
func (g *Aggregator) ingest(b *Batch, source string, sampled bool) error {
	if err := b.Validate(); err != nil {
		if b.Delta {
			// A delta whose histograms fail validation is version skew
			// between sender and receiver, not a malformed request: asking
			// for a full-state resync gives the sender a road forward
			// (and the full push's validation failure, if any, stays 400).
			g.layoutMismatch.Add(1)
			rerr := resyncErr(ResyncLayoutMismatch, "%v", err)
			g.noteResyncEvent(b, rerr)
			return rerr
		}
		g.rejected.Add(1)
		return err
	}
	idx := g.ShardFor(b.Host)
	if g.log == nil {
		var ingestStart time.Time
		if sampled {
			ingestStart = time.Now()
		}
		_, err := g.shards[idx].ingest(b, source, g.now())
		if sampled {
			g.observeStage(fleetobs.StageIngest, time.Since(ingestStart), b, idx)
		}
		g.noteResyncEvent(b, err)
		return err
	}
	var lockStart time.Time
	if sampled {
		lockStart = time.Now()
	}
	g.iomu[idx].Lock()
	if sampled {
		g.observeStage(fleetobs.StageLockWait, time.Since(lockStart), b, idx)
	}
	var ingestStart time.Time
	if sampled {
		ingestStart = time.Now()
	}
	applied, err := g.shards[idx].ingest(b, source, g.now())
	if sampled {
		g.observeStage(fleetobs.StageIngest, time.Since(ingestStart), b, idx)
	}
	var rotated bool
	if err == nil && applied {
		if data, eerr := EncodeBatchBytes(b); eerr != nil {
			g.log.appendErrs.Add(1)
		} else {
			var appendStart time.Time
			if sampled {
				appendStart = time.Now()
			}
			if rotated, eerr = g.log.append(idx, data, b.SentUnixNano, g.now()); eerr != nil {
				rotated = false
			}
			if sampled {
				g.observeStage(fleetobs.StageLogAppend, time.Since(appendStart), b, idx)
			}
		}
	}
	g.iomu[idx].Unlock()
	if rotated && g.log.needsCompaction(idx) {
		// Best-effort: a failed compaction leaves the chain long but
		// whole; the next rotation retries.
		pprof.Do(context.Background(),
			pprof.Labels("stage", "compaction", "shard", strconv.Itoa(idx)),
			func(context.Context) {
				g.log.compact(idx, g.shards[idx].fullBatches, g.now())
			})
	}
	g.noteResyncEvent(b, err)
	return err
}

// observeStage records one sampled stage span carrying the batch's
// trace identity.
func (g *Aggregator) observeStage(st fleetobs.Stage, d time.Duration, b *Batch, shard int) {
	g.cfg.Obs.Observe(st, d, fleetobs.Event{
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq, Shard: shard,
	})
}

// noteResyncEvent emits a KindResync event with its typed cause when
// err is a resync refusal (no-op otherwise). Resyncs are structural —
// a storm of them is the thing this layer exists to explain — so they
// are never sampled.
func (g *Aggregator) noteResyncEvent(b *Batch, err error) {
	if err == nil || !errors.Is(err, ErrResyncRequired) {
		return
	}
	g.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindResync, Scope: "aggregator",
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq,
		Shard: g.ShardFor(b.Host), Cause: string(resyncCauseOf(err)),
	})
}

// Close syncs and closes the segment log's open files; a no-op for a
// memory-only aggregator. The aggregator itself stays usable — only
// further appends would reopen files — but callers should treat Close as
// the end of the aggregator's life.
func (g *Aggregator) Close() error {
	if g.log == nil {
		return nil
	}
	return g.log.close()
}

// CompactLog rewrites every shard's log chain as one segment of full
// frames, one per host — the operation rotation triggers automatically
// once a chain exceeds CompactSegments, exposed for tests and operational
// forcing. No-op without a log.
func (g *Aggregator) CompactLog() error {
	if g.log == nil {
		return nil
	}
	var first error
	for i := range g.shards {
		if err := g.log.compact(i, g.shards[i].fullBatches, g.now()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Forget removes a host from the aggregator (and its pull registration).
func (g *Aggregator) Forget(host string) {
	g.shardOf(host).forget(host)
	g.pmu.Lock()
	delete(g.pulls, host)
	g.pmu.Unlock()
}

// Watch registers an agent's pull endpoint (its PullHandler URL) so
// PullAll and PullLoop scrape it. Watching a host that also pushes is
// harmless — the newest sequence wins either way.
func (g *Aggregator) Watch(host, url string) {
	g.pmu.Lock()
	defer g.pmu.Unlock()
	g.pulls[host] = url
}

func (g *Aggregator) pullTargets() map[string]string {
	g.pmu.RLock()
	defer g.pmu.RUnlock()
	targets := make(map[string]string, len(g.pulls))
	for h, u := range g.pulls {
		targets[h] = u
	}
	return targets
}

// PullAll scrapes every watched endpoint, at most PullConcurrency in
// flight at once, each bounded by PullTimeout, and ingests what it gets.
// It returns the per-host errors (empty map when every pull succeeded).
func (g *Aggregator) PullAll() map[string]error {
	var (
		wg   sync.WaitGroup
		errs = make(map[string]error)
		emu  sync.Mutex
		sem  = make(chan struct{}, g.cfg.PullConcurrency)
	)
	for host, url := range g.pullTargets() {
		sem <- struct{}{}
		wg.Add(1)
		go func(host, url string) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := g.pullOne(host, url); err != nil {
				g.pullErrors.Add(1)
				emu.Lock()
				errs[host] = err
				emu.Unlock()
			}
		}(host, url)
	}
	wg.Wait()
	return errs
}

// PullLoop scrapes every watched host once per interval until stop closes.
// Each host is assigned a deterministic phase within the interval (a hash
// of its name over pullSlots buckets), so a large fleet's pulls arrive as
// a steady trickle across the whole interval instead of a thundering herd
// at each boundary; in-flight pulls are bounded by PullConcurrency, and
// when the fleet is slower than the schedule, the schedule waits (ticks
// are dropped) rather than piling up goroutines. Hosts Watch()ed while
// the loop runs join the schedule on their next phase.
func (g *Aggregator) PullLoop(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	slotD := interval / pullSlots
	if slotD <= 0 {
		slotD = time.Millisecond
	}
	tick := time.NewTicker(slotD)
	defer tick.Stop()
	sem := make(chan struct{}, g.cfg.PullConcurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	for slot := 0; ; slot = (slot + 1) % pullSlots {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for host, url := range g.pullTargets() {
			if pullSlot(host) != slot {
				continue
			}
			select {
			case sem <- struct{}{}:
			case <-stop:
				return
			}
			wg.Add(1)
			go func(host, url string) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := g.pullOne(host, url); err != nil {
					g.pullErrors.Add(1)
				}
			}(host, url)
		}
	}
}

// pullOne scrapes one agent and ingests the batch.
func (g *Aggregator) pullOne(host, url string) error {
	ctx, cancel := contextWithTimeout(g.cfg.PullTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: pull %s returned %s", host, resp.Status)
	}
	// Bound the pull body exactly like push's MaxBytesReader: one frame
	// cannot legitimately exceed its declared limits, and a hostile or
	// broken agent must not be able to stream forever into the decoder.
	b, err := DecodeBatch(io.LimitReader(resp.Body, 16+maxHeaderLen+maxPayloadLen))
	if err != nil {
		return err
	}
	g.recvBytes.Add(resp.ContentLength)
	if b.Host == "" {
		b.Host = host
	}
	return g.Ingest(b, "pull")
}

// HostStatus is one host's liveness record.
type HostStatus struct {
	Host string `json:"host"`
	// Source is how the newest batch arrived: "push", "pull", or "log"
	// for state recovered by boot replay that no agent has refreshed yet.
	Source string `json:"source"`
	// Seq is the newest batch sequence; Batches counts everything
	// ingested, retries included.
	Seq     uint64 `json:"seq"`
	Batches int64  `json:"batches"`
	// Snapshots is the number of virtual disks in the newest batch.
	Snapshots int `json:"snapshots"`
	// LastSeenUnixNano and AgeSeconds locate the newest batch in time;
	// Stale means the age exceeded the liveness horizon and the host is
	// excluded from merged views.
	LastSeenUnixNano int64   `json:"last_seen_unix_nano"`
	AgeSeconds       float64 `json:"age_seconds"`
	Stale            bool    `json:"stale"`
	// Level is the sender's height in the federation tree (0 = leaf
	// agent, 1 = a region re-exporting agents, and so on); Leaves is how
	// many leaf hosts the entry folds together (1 for a leaf agent).
	Level  int `json:"level"`
	Leaves int `json:"leaves"`
}

// Hosts lists every known host sorted by name.
func (g *Aggregator) Hosts() []HostStatus {
	now := g.now()
	var out []HostStatus
	for _, sh := range g.shards {
		out = sh.statuses(now, g.cfg.StaleAfter, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// ClusterSnapshot merges every fresh host's disks into one cluster-wide
// view (nil when no fresh host has reported): each shard's memoized merge,
// folded once more at the edge. Bin-exact layouts make the two-level merge
// equal the flat one.
func (g *Aggregator) ClusterSnapshot(includeStale bool) *core.Snapshot {
	now := g.now()
	var parts []*core.Snapshot
	for _, sh := range g.shards {
		if c, _ := sh.merged(now, g.cfg.StaleAfter, includeStale, !g.cfg.DisableMergeCache); c != nil {
			parts = append(parts, c)
		}
	}
	return core.Aggregate("cluster", "*", parts...)
}

// VMSnapshots merges each VM's disks across all fresh hosts, sorted by VM
// name — the federated version of Registry.VMSnapshot. Shard-level per-VM
// merges (memoized) combine across shards for VMs whose hosts span them.
func (g *Aggregator) VMSnapshots(includeStale bool) []*core.Snapshot {
	now := g.now()
	byVM := make(map[string][]*core.Snapshot)
	for _, sh := range g.shards {
		_, vms := sh.merged(now, g.cfg.StaleAfter, includeStale, !g.cfg.DisableMergeCache)
		for _, s := range vms {
			byVM[s.VM] = append(byVM[s.VM], s)
		}
	}
	vms := make([]string, 0, len(byVM))
	for vm := range byVM {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	out := make([]*core.Snapshot, 0, len(vms))
	for _, vm := range vms {
		parts := byVM[vm]
		if len(parts) == 1 {
			// Already merged inside its shard; reuse (immutable).
			out = append(out, parts[0])
			continue
		}
		out = append(out, core.Aggregate(vm, "*", parts...))
	}
	return out
}

// AggregatorStats is a point-in-time copy of the aggregator's counters.
type AggregatorStats struct {
	// Hosts and StaleHosts count known and stale hosts; Batches counts
	// ingested batches, Rejected the batches refused at validation,
	// PullErrors the failed scatter-gather requests.
	Hosts, StaleHosts int
	Batches           int64
	Rejected          int64
	PullErrors        int64
	// DeltasApplied counts delta batches folded onto stored state,
	// Duplicates the redelivered deltas ignored idempotently, and Resyncs
	// the deltas refused with ErrResyncRequired.
	DeltasApplied int64
	Duplicates    int64
	Resyncs       int64
	// Per-cause resync splits. The first three are detected in the
	// shards and sum (with replay-time refusals included) into shard
	// Resyncs; LayoutMismatch is detected at aggregator validation and
	// adds on top, so Resyncs here is the true total across all causes.
	ResyncSeqGap         int64
	ResyncUnknownHost    int64
	ResyncUnknownDisk    int64
	ResyncLayoutMismatch int64
	ResyncBootChanged    int64
	// MergeCacheHits and MergeCacheMisses count shard-level merge
	// memoization outcomes across all shards.
	MergeCacheHits   int64
	MergeCacheMisses int64
}

// Stats returns the aggregator's counters.
func (g *Aggregator) Stats() AggregatorStats {
	var stale int
	hosts := g.Hosts()
	for _, h := range hosts {
		if h.Stale {
			stale++
		}
	}
	st := AggregatorStats{
		Hosts:      len(hosts),
		StaleHosts: stale,
		Rejected:   g.rejected.Load(),
		PullErrors: g.pullErrors.Load(),
	}
	for _, sh := range g.shards {
		st.Batches += sh.batches.Load()
		st.DeltasApplied += sh.deltasApplied.Load()
		st.Duplicates += sh.duplicates.Load()
		st.Resyncs += sh.resyncs.Load()
		st.MergeCacheHits += sh.cacheHits.Load()
		st.MergeCacheMisses += sh.cacheMisses.Load()
		st.ResyncSeqGap += sh.resyncCause[causeIndex(ResyncSeqGap)].Load()
		st.ResyncUnknownHost += sh.resyncCause[causeIndex(ResyncUnknownHost)].Load()
		st.ResyncUnknownDisk += sh.resyncCause[causeIndex(ResyncUnknownDisk)].Load()
		st.ResyncBootChanged += sh.resyncCause[causeIndex(ResyncBootChanged)].Load()
	}
	st.ResyncLayoutMismatch = g.layoutMismatch.Load()
	st.Resyncs += st.ResyncLayoutMismatch
	return st
}

// ShardStatus is one shard's slice of the aggregator, served by
// GET /fleet/shards.
type ShardStatus struct {
	Shard      int `json:"shard"`
	Hosts      int `json:"hosts"`
	StaleHosts int `json:"stale_hosts"`
	// Batches counts everything the shard ingested; DeltasApplied and
	// Resyncs expose the delta protocol's health per shard.
	Batches       int64 `json:"batches"`
	DeltasApplied int64 `json:"deltas_applied"`
	Duplicates    int64 `json:"duplicates"`
	Resyncs       int64 `json:"resyncs"`
	// MergeCacheHits/Misses show how often scrapes reused the shard's
	// memoized merge.
	MergeCacheHits   int64 `json:"merge_cache_hits"`
	MergeCacheMisses int64 `json:"merge_cache_misses"`
}

// Shards returns per-shard statistics, indexed by shard.
func (g *Aggregator) Shards() []ShardStatus {
	now := g.now()
	out := make([]ShardStatus, len(g.shards))
	for i, sh := range g.shards {
		var hosts, stale int
		sh.mu.RLock()
		hosts = len(sh.hosts)
		for _, st := range sh.hosts {
			if now.Sub(st.lastSeen) > g.cfg.StaleAfter {
				stale++
			}
		}
		sh.mu.RUnlock()
		out[i] = ShardStatus{
			Shard:            i,
			Hosts:            hosts,
			StaleHosts:       stale,
			Batches:          sh.batches.Load(),
			DeltasApplied:    sh.deltasApplied.Load(),
			Duplicates:       sh.duplicates.Load(),
			Resyncs:          sh.resyncs.Load(),
			MergeCacheHits:   sh.cacheHits.Load(),
			MergeCacheMisses: sh.cacheMisses.Load(),
		}
	}
	return out
}

// LogStats is a point-in-time view of the segment log, served by
// GET /fleet/log and exported as the vscsistats_fleet_log_* series.
type LogStats struct {
	// Enabled is false for a memory-only aggregator (every other field
	// is then zero).
	Enabled bool `json:"enabled"`
	// Segments and Bytes size the live log: every sealed segment plus
	// each shard's non-empty active one.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Appends counts frames written since open, AppendBytes their size,
	// and AppendErrors the writes absorbed after an encode or I/O
	// failure (those frames exist in memory only).
	Appends      int64 `json:"appends"`
	AppendBytes  int64 `json:"append_bytes"`
	AppendErrors int64 `json:"append_errors"`
	// Fsyncs, Rotations and Compactions count the log's maintenance
	// work; SegmentsRetired the sealed segments dropped by retention.
	Fsyncs          int64 `json:"fsyncs"`
	Rotations       int64 `json:"rotations"`
	Compactions     int64 `json:"compactions"`
	SegmentsRetired int64 `json:"segments_retired"`
	// FramesReplayed and TornTails describe the boot replay: frames
	// recovered and crash-torn tails truncated away.
	FramesReplayed int64 `json:"frames_replayed"`
	TornTails      int64 `json:"torn_tails"`
}

// LogStats returns the segment log's counters; Enabled is false (and all
// else zero) for a memory-only aggregator.
func (g *Aggregator) LogStats() LogStats {
	if g.log == nil {
		return LogStats{}
	}
	segs, bytes := g.log.segmentCounts()
	return LogStats{
		Enabled:         true,
		Segments:        segs,
		Bytes:           bytes,
		Appends:         g.log.appends.Load(),
		AppendBytes:     g.log.appendBytes.Load(),
		AppendErrors:    g.log.appendErrs.Load(),
		Fsyncs:          g.log.fsyncs.Load(),
		Rotations:       g.log.rotations.Load(),
		Compactions:     g.log.compactions.Load(),
		SegmentsRetired: g.log.retired.Load(),
		FramesReplayed:  g.log.replayed.Load(),
		TornTails:       g.log.tornTails.Load(),
	}
}

// --- HTTP surface ---

// ServeHTTP serves the aggregator's routes; mount it under /fleet/ (e.g.
// via httpstats.Options.Fleet):
//
//	GET  /fleet/hosts     per-host liveness (JSON)
//	GET  /fleet/snapshot  merged cluster snapshot; ?vm=NAME for one VM,
//	                      ?view=vms for every per-VM merge,
//	                      ?include_stale=1 to merge stale hosts too
//	GET  /fleet/shards    per-shard host counts, delta/resync counters and
//	                      merge-cache hit rates; ?host=NAME answers which
//	                      shard a host routes to
//	GET  /fleet/history   windowed merge over the retained segment log:
//	                      ?from=&to= (RFC3339 or unix seconds/nanos) bound
//	                      the window, ?vm=NAME narrows to one VM,
//	                      ?view=vms returns every per-VM merge
//	GET  /fleet/catalog   classify every fresh VM's merged view against
//	                      the installed reference catalog; ?vm=NAME for
//	                      one VM with its full ranking, ?include_stale=1
//	                      to classify stale hosts' VMs too
//	GET  /fleet/log       segment-log size and maintenance counters
//	GET  /fleet/events    the pipeline event ring as JSON (requires
//	                      AggregatorConfig.Obs); ?kind= and ?host=
//	                      filter, ?limit= bounds
//	GET  /fleet/slow      the slowest retained pipeline operations;
//	                      ?threshold=10ms filters, ?limit= bounds
//	POST /fleet/push      one wire frame from an agent (full or delta;
//	                      an unappliable delta is a 409 whose body names
//	                      the resync_cause, asking the agent to resync
//	                      with full state)
func (g *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.Trim(r.URL.Path, "/")
	path = strings.TrimPrefix(path, "fleet/")
	switch path {
	case "hosts":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		telemetry.WriteJSON(w, g.Hosts())
	case "snapshot":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		g.serveSnapshot(w, r)
	case "shards":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		if host := r.URL.Query().Get("host"); host != "" {
			telemetry.WriteJSON(w, map[string]any{
				"host": host, "shard": g.ShardFor(host), "shards": g.NumShards(),
			})
			return
		}
		telemetry.WriteJSON(w, g.Shards())
	case "history":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		g.serveHistory(w, r)
	case "catalog":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		g.serveCatalog(w, r)
	case "log":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		telemetry.WriteJSON(w, g.LogStats())
	case "events":
		if g.cfg.Obs == nil {
			telemetry.JSONError(w, http.StatusNotFound, "observability disabled (AggregatorConfig.Obs unset)")
			return
		}
		g.cfg.Obs.ServeEvents(w, r)
	case "slow":
		if g.cfg.Obs == nil {
			telemetry.JSONError(w, http.StatusNotFound, "observability disabled (AggregatorConfig.Obs unset)")
			return
		}
		g.cfg.Obs.ServeSlow(w, r)
	case "push":
		if r.Method != http.MethodPost {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodPost)
			return
		}
		g.servePush(w, r)
	default:
		telemetry.JSONError(w, http.StatusNotFound, "not found")
	}
}

func (g *Aggregator) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	includeStale := r.URL.Query().Get("include_stale") == "1"
	if vm := r.URL.Query().Get("vm"); vm != "" {
		for _, s := range g.VMSnapshots(includeStale) {
			if s.VM == vm {
				telemetry.WriteJSON(w, s)
				return
			}
		}
		telemetry.JSONError(w, http.StatusNotFound, "unknown vm")
		return
	}
	if r.URL.Query().Get("view") == "vms" {
		telemetry.WriteJSON(w, g.VMSnapshots(includeStale))
		return
	}
	s := g.ClusterSnapshot(includeStale)
	if s == nil {
		telemetry.JSONError(w, http.StatusConflict, "no fresh host has reported")
		return
	}
	telemetry.WriteJSON(w, s)
}

func (g *Aggregator) servePush(w http.ResponseWriter, r *http.Request) {
	// One sampling decision covers the whole push — a sampled push times
	// its decode, lock wait, ingest and log append; an unsampled one
	// pays one atomic add total.
	sampled := g.cfg.Obs.Sample()
	pushStart := time.Now()
	// One frame cannot legitimately exceed its declared limits; bound the
	// body read accordingly so a hostile sender cannot stream forever.
	body := http.MaxBytesReader(w, r.Body, 16+maxHeaderLen+maxPayloadLen)
	var decodeStart time.Time
	if sampled {
		decodeStart = time.Now()
	}
	b, err := DecodeBatch(body)
	if sampled && err == nil {
		g.observeStage(fleetobs.StageDecode, time.Since(decodeStart), b, g.ShardFor(b.Host))
	}
	if err != nil {
		g.rejected.Add(1)
		telemetry.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Attribute ingest CPU to the pipeline: pprof samples taken inside
	// carry stage/host/shard labels via Options.Pprof for free.
	var ierr error
	pprof.Do(r.Context(),
		pprof.Labels("stage", "ingest", "host", b.Host, "shard", strconv.Itoa(g.ShardFor(b.Host))),
		func(context.Context) {
			ierr = g.ingest(b, "push", sampled)
		})
	if ierr != nil {
		if errors.Is(ierr, ErrResyncRequired) {
			fleetResyncError(w, ierr)
			return
		}
		telemetry.JSONError(w, http.StatusBadRequest, ierr.Error())
		return
	}
	g.recvBytes.Add(r.ContentLength)
	if sampled {
		g.cfg.Obs.Emit(fleetobs.Event{
			Kind: fleetobs.KindPush, Scope: "aggregator",
			Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq,
			Shard: g.ShardFor(b.Host), DurationNanos: int64(time.Since(pushStart)),
			Detail: fmt.Sprintf("delta=%t snapshots=%d", b.Delta, len(b.Snapshots)),
		})
	}
	telemetry.WriteJSON(w, map[string]any{"host": b.Host, "seq": b.Seq, "snapshots": len(b.Snapshots)})
}

// fleetResyncError writes the 409 resync response; the body carries the
// machine-readable cause alongside the human-readable error.
func fleetResyncError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(map[string]string{
		"error":        err.Error(),
		"resync_cause": string(resyncCauseOf(err)),
	})
}

// Tiers groups the aggregator's host set by federation level, ascending.
// A flat fleet has one level-0 tier; an aggregator fed by re-exporters
// shows each tier's host and folded-leaf counts.
func (g *Aggregator) Tiers() []TierStatus {
	byLevel := make(map[int]*TierStatus)
	for _, h := range g.Hosts() {
		t := byLevel[h.Level]
		if t == nil {
			t = &TierStatus{Level: h.Level}
			byLevel[h.Level] = t
		}
		t.Hosts++
		if h.Stale {
			t.StaleHosts++
		}
		t.Leaves += h.Leaves
	}
	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	out := make([]TierStatus, 0, len(levels))
	for _, l := range levels {
		out = append(out, *byLevel[l])
	}
	return out
}

// TierStatus is one federation level's slice of the host set.
type TierStatus struct {
	Level      int `json:"level"`
	Hosts      int `json:"hosts"`
	StaleHosts int `json:"stale_hosts"`
	Leaves     int `json:"leaves"`
}

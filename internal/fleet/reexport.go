package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// ReExporterConfig tunes a ReExporter. Zero values take the documented
// defaults.
type ReExporterConfig struct {
	// Region names this aggregator in the upstream tier — the synthetic
	// host its rolled-up state reports as (e.g. "region-west"). Required.
	Region string
	// Upstream is the parent aggregator's push URL, e.g.
	// "http://global:9108/fleet/push". Required.
	Upstream string
	// Interval is the re-export period (default 2s). It is also the
	// level-aware staleness horizon: a host aging out of this aggregator's
	// merges changes the next rendered rollup, so the upstream view sheds
	// the host within one interval.
	Interval time.Duration
	// Timeout bounds each upstream push request (default 5s).
	Timeout time.Duration
	// PerHostPassthrough re-exports each fresh downstream host as its own
	// upstream entry named Region+"/"+host instead of folding the region
	// into one synthetic host. The upstream then sees every leaf by name,
	// at the cost of upstream ingest scaling with hosts again; the default
	// rollup keeps upstream cost proportional to regions.
	PerHostPassthrough bool
	// DisableDeltas forces every re-export to carry full rendered state.
	// By default, once a push is acknowledged the re-exporter sends only
	// the shards (or hosts) whose merged state changed since — and a
	// liveness-only heartbeat when nothing did.
	DisableDeltas bool
	// Client overrides the HTTP client (the per-request timeout always
	// comes from Timeout).
	Client *http.Client
	// Obs, when set, receives re-export flush latencies (StageReExport)
	// and KindReExport events. Nil disables re-export observability.
	Obs *fleetobs.Tracker
}

func (c *ReExporterConfig) withDefaults() ReExporterConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 2 * time.Second
	}
	if out.Timeout <= 0 {
		out.Timeout = 5 * time.Second
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	return out
}

// reExportBase is the last upstream-acknowledged rendering for one
// upstream host name — the state deltas are computed against.
type reExportBase struct {
	seq  uint64
	full []*core.Snapshot
}

// ReExporter makes an aggregator composable: it re-exports the
// aggregator's merged state upstream through the very same push protocol
// the aggregator ingests, so trees of any depth (agents → region →
// global) are built from one wire format and one ingest path.
//
// The default rollup renders the region as one synthetic upstream host:
// one snapshot per non-empty shard, taken from the shard's memoized merge
// cache — so rendering costs recomputation only for shards that changed,
// and the upstream delta carries only those shards. Upstream wire bytes
// and ingest scale with regions changed, not with leaf hosts.
//
// When nothing changed since the last acknowledged push, the re-exporter
// sends a liveness-only heartbeat: a duplicate delta (same sequence,
// empty payload) that refreshes the upstream's lastSeen without bumping
// its shard version — the upstream merge cache stays valid across quiet
// intervals.
//
// Every frame carries this process's boot incarnation, its federation
// level (1 + the highest level among fresh downstream hosts) and the
// leaf-host count folded in, so the upstream's /fleet/hosts and tier
// telemetry can tell a 640-leaf region from a single agent. A restarted
// re-exporter's first delta draws a boot-changed 409 and answers it with
// full state, exactly like an agent after an aggregator restart.
type ReExporter struct {
	cfg ReExporterConfig
	agg *Aggregator

	// boot is this process's incarnation; traceSalt distinguishes trace
	// IDs across restarts, where seq starts over.
	boot      uint64
	traceSalt uint32

	// mu single-flights flush and guards seqs/bases: deltas are rendered
	// against the base at flush time, and only one flush may advance it.
	mu    sync.Mutex
	seqs  map[string]uint64
	bases map[string]*reExportBase

	pushes      atomic.Int64
	deltaPushes atomic.Int64
	heartbeats  atomic.Int64
	fullPushes  atomic.Int64
	resyncs     atomic.Int64
	pushErrors  atomic.Int64
	sentBytes   atomic.Int64
	level       atomic.Int64
	lastErr     atomic.Pointer[string]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewReExporter wraps the aggregator with an upstream re-export loop. It
// does not start pushing; call Start, or ReExportNow for a synchronous
// flush.
func NewReExporter(agg *Aggregator, cfg ReExporterConfig) *ReExporter {
	if cfg.Region == "" {
		panic("fleet: ReExporterConfig.Region is required")
	}
	if cfg.Upstream == "" {
		panic("fleet: ReExporterConfig.Upstream is required")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &ReExporter{
		cfg:       cfg.withDefaults(),
		agg:       agg,
		boot:      newBootID(rng),
		traceSalt: uint32(rng.Int63()),
		seqs:      make(map[string]uint64),
		bases:     make(map[string]*reExportBase),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Region returns the re-exporter's upstream identity.
func (r *ReExporter) Region() string { return r.cfg.Region }

// Start launches the re-export loop. Stop ends it with one final flush,
// so the upstream holds the region's last rendered state.
func (r *ReExporter) Start() {
	r.startOnce.Do(func() {
		go r.run()
	})
}

// Stop ends the re-export loop and waits for it; safe without Start and
// safe to call twice.
func (r *ReExporter) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) })
	<-r.done
	r.ReExportNow()
}

func (r *ReExporter) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ReExportNow()
		}
	}
}

// upstreamEntry is one rendered upstream host: the unit of re-export.
type upstreamEntry struct {
	host   string
	level  int
	leaves int
	snaps  []*core.Snapshot
}

// renderRollup folds the aggregator into one synthetic upstream host:
// one snapshot per non-empty shard, straight off the shard's memoized
// merge, shallow-renamed to (Region, shard-NNNN) so entries pair stably
// across intervals. Histograms are shared by reference — snapshots are
// immutable once stored — so rendering copies struct headers, not bins.
// The fold preserves merge exactness: the upstream's merge over these
// shard snapshots equals this aggregator's own cluster merge, because
// aggregation is associative bin by bin.
func (r *ReExporter) renderRollup(now time.Time) upstreamEntry {
	e := upstreamEntry{host: r.cfg.Region}
	for i, sh := range r.agg.shards {
		c, _ := sh.merged(now, r.agg.cfg.StaleAfter, false, !r.agg.cfg.DisableMergeCache)
		if c == nil {
			continue // empty shard: renders nothing, pairs with nothing
		}
		s := *c
		s.VM = r.cfg.Region
		s.Disk = fmt.Sprintf("shard-%04d", i)
		e.snaps = append(e.snaps, &s)
	}
	e.level, e.leaves = r.tierOf(now)
	return e
}

// tierOf computes the level and folded-leaf count this re-exporter stamps
// on upstream frames: one more than the highest level among fresh
// downstream hosts, and the sum of their leaf counts.
func (r *ReExporter) tierOf(now time.Time) (level, leaves int) {
	maxLevel := 0
	for _, sh := range r.agg.shards {
		sh.mu.RLock()
		for _, st := range sh.hosts {
			if now.Sub(st.lastSeen) > r.agg.cfg.StaleAfter {
				continue
			}
			if st.level > maxLevel {
				maxLevel = st.level
			}
			if st.leaves > 0 {
				leaves += st.leaves
			} else {
				leaves++
			}
		}
		sh.mu.RUnlock()
	}
	return maxLevel + 1, leaves
}

// renderPassthrough renders each fresh downstream host as its own
// upstream entry named Region+"/"+host, sorted by name. Snapshots are
// shared by reference with the shard's stored state.
func (r *ReExporter) renderPassthrough(now time.Time) []upstreamEntry {
	var out []upstreamEntry
	for _, sh := range r.agg.shards {
		sh.mu.RLock()
		for _, st := range sh.hosts {
			if now.Sub(st.lastSeen) > r.agg.cfg.StaleAfter {
				continue
			}
			leaves := st.leaves
			if leaves <= 0 {
				leaves = 1
			}
			out = append(out, upstreamEntry{
				host:   r.cfg.Region + "/" + st.host,
				level:  st.level + 1,
				leaves: leaves,
				snaps:  st.snaps,
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].host < out[j].host })
	return out
}

// ReExportNow renders the aggregator's current state and pushes it
// upstream synchronously, returning the first push error. The
// deterministic flush used by tests, benchmarks and operators forcing a
// final export; the Start loop calls it once per Interval.
func (r *ReExporter) ReExportNow() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	now := r.agg.now()
	entries := []upstreamEntry{r.renderRollup(now)}
	if r.cfg.PerHostPassthrough {
		entries = r.renderPassthrough(now)
	}
	var first error
	for _, e := range entries {
		if err := r.flushEntry(e); err != nil && first == nil {
			first = err
		}
	}
	if maxLevel := maxEntryLevel(entries); maxLevel > 0 {
		r.level.Store(int64(maxLevel))
	}
	d := time.Since(start)
	r.cfg.Obs.Observe(fleetobs.StageReExport, d, fleetobs.Event{
		Host: r.cfg.Region, Shard: -1,
	})
	return first
}

func maxEntryLevel(entries []upstreamEntry) int {
	m := 0
	for _, e := range entries {
		if e.level > m {
			m = e.level
		}
	}
	return m
}

// flushEntry delivers one upstream host's rendering: a delta of the
// changed snapshots when a base exists and the disk sets line up, a
// liveness-only heartbeat when nothing changed, full state otherwise. A
// delta the upstream refuses with a 4xx (restart, gap, boot change)
// clears the base and immediately re-sends this same rendering full —
// resync is protocol, not failure.
func (r *ReExporter) flushEntry(e upstreamEntry) error {
	seq := r.seqs[e.host]
	base := r.bases[e.host]
	if base != nil && !r.cfg.DisableDeltas {
		if deltas, ok := subAgainst(e.snaps, base.full); ok {
			var b *Batch
			if len(deltas) == 0 {
				// Nothing changed: heartbeat as a duplicate delta — the
				// upstream's duplicate path refreshes lastSeen, applies
				// nothing, logs nothing and leaves its merge cache valid.
				b = r.frame(e, base.seq, base.seq-1, true, nil)
			} else {
				seq++
				b = r.frame(e, seq, base.seq, true, deltas)
			}
			err := r.push(b)
			switch {
			case err == nil:
				if len(deltas) == 0 {
					r.pushes.Add(1)
					r.heartbeats.Add(1)
					r.emitPush(b, "heartbeat", len(e.snaps))
					return nil
				}
				r.seqs[e.host] = seq
				r.bases[e.host] = &reExportBase{seq: seq, full: e.snaps}
				r.pushes.Add(1)
				r.deltaPushes.Add(1)
				r.emitPush(b, "delta", len(deltas))
				return nil
			case errors.Is(err, errResync):
				// The upstream lost our base, restarted, or sees a
				// different boot claiming our name — heartbeats draw this
				// too. Forget the base and fall through to the full push.
				r.resyncs.Add(1)
				delete(r.bases, e.host)
				seq = r.seqs[e.host]
			default:
				return r.noteError(e, err)
			}
		}
	}
	seq++
	f := r.frame(e, seq, 0, false, e.snaps)
	if err := r.push(f); err != nil {
		return r.noteError(e, err)
	}
	r.seqs[e.host] = seq
	r.bases[e.host] = &reExportBase{seq: seq, full: e.snaps}
	r.pushes.Add(1)
	r.fullPushes.Add(1)
	r.emitPush(f, "full", len(e.snaps))
	return nil
}

// frame builds one upstream wire batch for the entry.
func (r *ReExporter) frame(e upstreamEntry, seq, baseSeq uint64, delta bool, snaps []*core.Snapshot) *Batch {
	now := time.Now().UnixNano()
	b := &Batch{
		Host:            e.host,
		Seq:             seq,
		SentUnixNano:    now,
		Delta:           delta,
		Snapshots:       snaps,
		TraceID:         fmt.Sprintf("%s-%08x-%d", e.host, r.traceSalt, seq),
		CaptureUnixNano: now,
		Boot:            r.boot,
		Level:           e.level,
		Leaves:          e.leaves,
	}
	if delta {
		b.BaseSeq = baseSeq
	}
	return b
}

// push sends one batch upstream with the per-request timeout; any 4xx on
// a delta folds into errResync, exactly like the agent's push.
func (r *ReExporter) push(b *Batch) error {
	body, err := EncodeBatchBytes(b)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, r.cfg.Upstream, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentType)
	ctx, cancel := contextWithTimeout(r.cfg.Timeout)
	defer cancel()
	resp, err := r.cfg.Client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		if b.Delta && resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return fmt.Errorf("%w (upstream returned %s)", errResync, resp.Status)
		}
		return fmt.Errorf("fleet: upstream returned %s", resp.Status)
	}
	r.sentBytes.Add(int64(len(body)))
	return nil
}

// noteError records a failed upstream delivery.
func (r *ReExporter) noteError(e upstreamEntry, err error) error {
	r.pushErrors.Add(1)
	msg := err.Error()
	r.lastErr.Store(&msg)
	r.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindReExport, Scope: "aggregator",
		Host: e.host, Shard: -1, Detail: "error: " + msg,
	})
	return err
}

// emitPush records one delivered upstream frame as a KindReExport event.
func (r *ReExporter) emitPush(b *Batch, mode string, snaps int) {
	r.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindReExport, Scope: "aggregator",
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq, Shard: -1,
		Detail: fmt.Sprintf("%s snapshots=%d level=%d leaves=%d", mode, snaps, b.Level, b.Leaves),
	})
}

// ReExporterStats is a point-in-time copy of the re-exporter's counters.
type ReExporterStats struct {
	// Region and Upstream identify the re-export edge; Level is the
	// federation level last stamped on upstream frames (0 before the
	// first flush).
	Region   string
	Upstream string
	Level    int
	// Pushes counts frames delivered upstream; DeltaPushes, Heartbeats
	// and FullPushes split them by mode (heartbeats are liveness-only
	// duplicates). Resyncs counts upstream delta refusals answered with
	// full state; Errors counts failed delivery attempts.
	Pushes, DeltaPushes, Heartbeats, FullPushes, Resyncs, Errors int64
	// SentBytes totals the wire bytes delivered upstream.
	SentBytes int64
	// LastError is the most recent delivery error ("" when none yet).
	LastError string
}

// Stats returns the re-exporter's counters.
func (r *ReExporter) Stats() ReExporterStats {
	s := ReExporterStats{
		Region:      r.cfg.Region,
		Upstream:    r.cfg.Upstream,
		Level:       int(r.level.Load()),
		Pushes:      r.pushes.Load(),
		DeltaPushes: r.deltaPushes.Load(),
		Heartbeats:  r.heartbeats.Load(),
		FullPushes:  r.fullPushes.Load(),
		Resyncs:     r.resyncs.Load(),
		Errors:      r.pushErrors.Load(),
		SentBytes:   r.sentBytes.Load(),
	}
	if msg := r.lastErr.Load(); msg != nil {
		s.LastError = *msg
	}
	return s
}

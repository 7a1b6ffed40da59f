package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// History answers "what did the fleet's I/O look like between from and to"
// from the retained segment log — the paper's histograms-over-time views
// at fleet scope. The log is replayed per host up to each boundary:
//
//	baseline = the host's state as of its newest frame sent at or before from
//	end      = the host's state as of its newest frame sent at or before to
//
// and the window is end.Sub(baseline) per virtual disk — exactly the
// interval recorder's subtraction, applied to the durable chain instead of
// a live collector. A disk absent from the baseline (the VM appeared
// inside the window) contributes its full accumulated state; a host with
// no frame inside (from, to] contributes nothing, which equals a zero
// window because the chains are cumulative. The per-disk windows then
// merge bin-exactly into cluster and per-VM views, like every other
// aggregator read.
//
// Caveats inherited from the log, not invented here: retention and
// compaction discard old frames, so a from earlier than the oldest
// retained baseline silently widens the window to "since the oldest frame
// we still have"; and a host whose counters reset inside the window (agent
// reinstalled, VM recreated under the same name) subtracts across the
// reset like any cumulative-counter system would.
//
// History scans disk on every call — it is a reporting query, deliberately
// off the ingest and scrape fast paths, and it never touches shard locks.
func (g *Aggregator) History(from, to time.Time) (*HistoryResult, error) {
	if g.log == nil {
		return nil, errors.New("fleet: history requires a segment log (no data dir configured)")
	}
	var res *HistoryResult
	var err error
	pprof.Do(context.Background(), pprof.Labels("stage", "history"), func(context.Context) {
		start := time.Now()
		res, err = g.history(from, to)
		g.cfg.Obs.ObserveSince(fleetobs.StageHistory, start, fleetobs.Event{Shard: -1})
	})
	return res, err
}

func (g *Aggregator) history(from, to time.Time) (*HistoryResult, error) {
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	hosts := make(map[string]*historyHost)
	var frames int64
	g.log.scan(func(_ int, b *Batch) {
		frames++
		if b.SentUnixNano > toNs {
			// Past the window's end: nothing after this frame on the
			// host's chain can matter (deltas building on it would also
			// be past the end, and fulls carry their own state).
			return
		}
		if b.Validate() != nil {
			return // a frame from another binary generation's layout
		}
		h := hosts[b.Host]
		if h == nil {
			h = &historyHost{}
			hosts[b.Host] = h
		}
		if b.Delta {
			if !h.has || b.Seq <= h.seq || b.BaseSeq != h.seq {
				return // same strict rules as live ingest: exact base only
			}
			snaps, err := applyDeltaSnaps(h.cur, b.Snapshots)
			if err != nil {
				return
			}
			h.cur = snaps
		} else {
			if h.has && b.Seq < h.seq {
				return // stale duplicate (compaction-interrupt leftovers)
			}
			h.cur = b.Snapshots
		}
		h.seq, h.has = b.Seq, true
		if b.SentUnixNano <= fromNs {
			h.base = h.cur
		} else {
			h.inWindow = true
		}
		h.end = h.cur
	})

	var windows []*core.Snapshot
	contributing := 0
	for _, h := range hosts {
		if !h.inWindow || h.end == nil {
			continue
		}
		contributing++
		base := make(map[diskKey]*core.Snapshot, len(h.base))
		for _, s := range h.base {
			base[diskKey{s.VM, s.Disk}] = s
		}
		for _, s := range h.end {
			windows = append(windows, s.Sub(base[diskKey{s.VM, s.Disk}]))
		}
	}
	res := &HistoryResult{FromUnixNano: fromNs, ToUnixNano: toNs, Hosts: contributing, Frames: frames}
	res.Cluster, res.VMs = mergeSnaps(windows)
	return res, nil
}

// historyHost is one host's replay state during a History scan.
type historyHost struct {
	seq      uint64
	has      bool // any frame applied yet
	inWindow bool // a state change landed inside (from, to]
	cur      []*core.Snapshot
	base     []*core.Snapshot // state as of the newest frame sent <= from
	end      []*core.Snapshot // state as of the newest frame sent <= to
}

// HistoryResult is a windowed merge over the segment log, served by
// GET /fleet/history.
type HistoryResult struct {
	// FromUnixNano and ToUnixNano echo the resolved window bounds.
	FromUnixNano int64 `json:"from_unix_nano"`
	ToUnixNano   int64 `json:"to_unix_nano"`
	// Hosts counts the hosts whose chains changed inside the window;
	// Frames counts every log frame the scan visited.
	Hosts  int   `json:"hosts"`
	Frames int64 `json:"frames"`
	// Cluster is the fleet-wide windowed merge, VMs the per-VM windowed
	// merges sorted by name; both nil when nothing changed in the window.
	// The HTTP layer trims whichever the query did not ask for.
	Cluster *core.Snapshot   `json:"cluster,omitempty"`
	VMs     []*core.Snapshot `json:"vms,omitempty"`
}

// serveHistory handles GET /fleet/history?from=&to=&vm=&view=.
func (g *Aggregator) serveHistory(w http.ResponseWriter, r *http.Request) {
	if g.log == nil {
		telemetry.JSONError(w, http.StatusNotFound, "history requires a segment log (start the aggregator with a data dir)")
		return
	}
	q := r.URL.Query()
	from, err := parseHistoryTime(q.Get("from"), time.Unix(0, 0))
	if err != nil {
		telemetry.JSONError(w, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	to, err := parseHistoryTime(q.Get("to"), g.now())
	if err != nil {
		telemetry.JSONError(w, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	if to.Before(from) {
		telemetry.JSONError(w, http.StatusBadRequest, "window ends before it starts")
		return
	}
	res, err := g.History(from, to)
	if err != nil {
		telemetry.JSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if vm := q.Get("vm"); vm != "" {
		for _, s := range res.VMs {
			if s.VM == vm {
				res.VMs = []*core.Snapshot{s}
				res.Cluster = nil
				telemetry.WriteJSON(w, res)
				return
			}
		}
		telemetry.JSONError(w, http.StatusNotFound, "no data for vm in window")
		return
	}
	if q.Get("view") == "vms" {
		res.Cluster = nil
		telemetry.WriteJSON(w, res)
		return
	}
	res.VMs = nil
	telemetry.WriteJSON(w, res)
}

// parseHistoryTime accepts RFC3339 ("2026-08-08T12:00:00Z") or an integer
// unix timestamp — values above 1e15 are nanoseconds, anything else
// seconds (1e15 ns is January 1970, so no real clock is ambiguous).
func parseHistoryTime(s string, def time.Time) (time.Time, error) {
	if s == "" {
		return def, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("want RFC3339 or unix seconds/nanos, got %q", s)
	}
	if v > 1e15 {
		return time.Unix(0, v), nil
	}
	return time.Unix(v, 0), nil
}

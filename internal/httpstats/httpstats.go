// Package httpstats exposes a host's characterization service over HTTP —
// the moral equivalent of the paper's /proc/vmware/scsi stats node (§5.2),
// done the way a modern control plane would: JSON snapshots per virtual
// disk, plus enable/disable/reset controls and mount points for the
// telemetry layer's exporters.
//
// Routes:
//
//	GET  /disks                          list (vm, disk, enabled, commands)
//	GET  /disks/{vm}/{disk}              full snapshot as JSON
//	GET  /disks/{vm}/{disk}/histogram?metric=ioLength&class=reads
//	GET  /disks/{vm}/{disk}/fingerprint  classification + recommendations
//	GET  /disks/{vm}/{disk}/series       interval time series (Options.Series)
//	POST /disks/{vm}/{disk}/enable       turn the service on
//	POST /disks/{vm}/{disk}/disable      turn it off (data retained)
//	POST /disks/{vm}/{disk}/reset        discard accumulated data
//	GET  /metrics                        Prometheus exposition (Options.Metrics)
//	GET  /debug/trace                    Chrome trace JSON (Options.Trace)
//	GET  /debug/fleettrace               fleet pipeline Chrome trace (Options.FleetTrace)
//	GET  /debug/pprof/...                Go profiling endpoints (Options.Pprof)
//	GET  /watch                          SSE interval feed (Options.Series)
//	GET  /healthz                        liveness probe: {status, uptime, disks}
//	*    /fleet/...                      fleet federation surface (Options.Fleet)
//
// Path segments are URL-decoded, so VM and disk names containing spaces or
// reserved characters (%20, %2F, …) address correctly; malformed escapes
// get 400. Error responses are JSON ({"error": ...}) with
// Content-Type: application/json, and every 405 carries an Allow header.
package httpstats

import (
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
)

// SeriesSource serves the interval time-series surfaces: a per-disk JSON
// series and a live SSE feed. telemetry.Streamer implements it; the
// indirection keeps this package free of a telemetry dependency.
type SeriesSource interface {
	ServeSeries(w http.ResponseWriter, r *http.Request, vm, disk string)
	ServeWatch(w http.ResponseWriter, r *http.Request)
}

// Options mounts optional observability surfaces onto the handler. Nil
// fields leave their routes unmounted (404).
type Options struct {
	// Metrics serves GET /metrics (e.g. a telemetry.Exporter).
	Metrics http.Handler
	// Trace serves GET /debug/trace (e.g. a telemetry.LifecycleTracer).
	Trace http.Handler
	// FleetTrace serves GET /debug/fleettrace: the fleet pipeline's
	// Chrome trace-event view (e.g. a fleetobs.Tracker's
	// ChromeTraceHandler), with hosts as processes and stages as threads.
	FleetTrace http.Handler
	// Series serves GET /disks/{vm}/{disk}/series and GET /watch.
	Series SeriesSource
	// Fleet serves every /fleet/... route (e.g. a fleet.Aggregator):
	// /fleet/hosts, /fleet/snapshot, /fleet/shards (per-shard routing,
	// delta-protocol and merge-cache counters), /fleet/history (windowed
	// merges over the aggregator's retained segment log), /fleet/log
	// (segment-log size and maintenance counters), /fleet/push (full or
	// delta frames; 409 asks the agent to resync with full state).
	Fleet http.Handler
	// Pprof mounts net/http/pprof under /debug/pprof/... for profiling the
	// observation fast path in situ (CPU, heap, mutex, block). Off by
	// default: the endpoints reveal process internals and a CPU profile
	// costs real cycles, so production deployments must opt in.
	Pprof bool
	// OnControl, if set, observes every successful control-plane action:
	// verb is "enable", "disable", "reset" or "snapshot".
	OnControl func(verb, vm, disk string)
}

// Handler serves a registry. Registry, Collector and histogram operations
// are all safe for concurrent use, so any number of handler goroutines can
// list disks, read snapshots and toggle or reset collection while one or
// more simulation goroutines (e.g. the parallel multi-VM driver's worlds)
// issue commands through the observed disks.
type Handler struct {
	reg   *core.Registry
	opts  Options
	start time.Time
	// now is the wall clock, injectable for the /healthz uptime test.
	now func() time.Time
}

// New returns an http.Handler over the registry with no optional surfaces.
func New(reg *core.Registry) *Handler { return NewWith(reg, Options{}) }

// NewWith returns an http.Handler over the registry with the given
// observability mounts.
func NewWith(reg *core.Registry, opts Options) *Handler {
	return &Handler{reg: reg, opts: opts, start: time.Now(), now: time.Now}
}

// diskInfo is the list-view record.
type diskInfo struct {
	VM       string `json:"vm"`
	Disk     string `json:"disk"`
	Enabled  bool   `json:"enabled"`
	Commands int64  `json:"commands"`
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts, err := splitPath(r.URL.EscapedPath())
	if err != nil {
		telemetry.JSONError(w, http.StatusBadRequest, "bad path escape")
		return
	}
	if len(parts) >= 1 {
		switch {
		case len(parts) == 1 && parts[0] == "metrics":
			if h.opts.Metrics != nil {
				h.opts.Metrics.ServeHTTP(w, r)
				return
			}
		case len(parts) == 2 && parts[0] == "debug" && parts[1] == "trace":
			if h.opts.Trace != nil {
				h.opts.Trace.ServeHTTP(w, r)
				return
			}
		case len(parts) == 2 && parts[0] == "debug" && parts[1] == "fleettrace":
			if h.opts.FleetTrace != nil {
				h.opts.FleetTrace.ServeHTTP(w, r)
				return
			}
		case len(parts) >= 2 && parts[0] == "debug" && parts[1] == "pprof":
			if h.opts.Pprof {
				servePprof(w, r, parts[2:])
				return
			}
		case len(parts) == 1 && parts[0] == "watch":
			if h.opts.Series != nil {
				h.opts.Series.ServeWatch(w, r)
				return
			}
		case len(parts) == 1 && parts[0] == "healthz":
			h.healthz(w, r)
			return
		case parts[0] == "fleet":
			if h.opts.Fleet != nil {
				h.opts.Fleet.ServeHTTP(w, r)
				return
			}
		}
	}
	if len(parts) == 0 || parts[0] != "disks" {
		telemetry.JSONError(w, http.StatusNotFound, "not found")
		return
	}
	switch {
	case len(parts) == 1:
		h.list(w, r)
	case len(parts) == 3:
		h.snapshot(w, r, parts[1], parts[2])
	case len(parts) == 4:
		h.action(w, r, parts[1], parts[2], parts[3])
	default:
		telemetry.JSONError(w, http.StatusNotFound, "not found")
	}
}

// splitPath splits the still-escaped request path on "/" and URL-decodes
// each segment afterwards, so a VM or disk name containing an encoded
// slash (%2F) or space stays one segment instead of 404ing. Bad escapes
// return an error (mapped to 400 above).
func splitPath(p string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s == "" {
			continue
		}
		dec, err := url.PathUnescape(s)
		if err != nil {
			return nil, err
		}
		out = append(out, dec)
	}
	return out, nil
}

// servePprof dispatches /debug/pprof/... to net/http/pprof. The index and
// the special handlers (cmdline, profile, symbol, trace) have dedicated
// entry points; every other name is a runtime profile looked up by
// pprof.Handler, which 404s unknown names itself.
func servePprof(w http.ResponseWriter, r *http.Request, rest []string) {
	if len(rest) == 0 {
		pprof.Index(w, r)
		return
	}
	switch rest[0] {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Handler(rest[0]).ServeHTTP(w, r)
	}
}

// healthz is the liveness probe: always 200 while the process serves,
// with just enough state (uptime, registered disk count) for a fleet
// aggregator or a k8s-style prober to tell "up" from "up and populated".
// GET and HEAD only; the body is deliberately cheap — no snapshots taken.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet, http.MethodHead)
		return
	}
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Type", "application/json")
		return
	}
	telemetry.WriteJSON(w, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Disks         int     `json:"disks"`
	}{"ok", h.now().Sub(h.start).Seconds(), len(h.reg.List())})
}

func (h *Handler) control(verb, vm, disk string) {
	if h.opts.OnControl != nil {
		h.opts.OnControl(verb, vm, disk)
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	var infos []diskInfo
	for _, c := range h.reg.List() {
		info := diskInfo{VM: c.VM(), Disk: c.Disk(), Enabled: c.Enabled()}
		if s := c.Snapshot(); s != nil {
			info.Commands = s.Commands
		}
		infos = append(infos, info)
	}
	telemetry.WriteJSON(w, infos)
}

func (h *Handler) lookup(w http.ResponseWriter, vm, disk string) *core.Collector {
	c := h.reg.Lookup(vm, disk)
	if c == nil {
		telemetry.JSONError(w, http.StatusNotFound, "unknown virtual disk")
	}
	return c
}

func (h *Handler) snapshot(w http.ResponseWriter, r *http.Request, vm, disk string) {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	c := h.lookup(w, vm, disk)
	if c == nil {
		return
	}
	s := c.Snapshot()
	if s == nil {
		telemetry.JSONError(w, http.StatusConflict, "service never enabled for this disk")
		return
	}
	h.control("snapshot", vm, disk)
	telemetry.WriteJSON(w, s)
}

func (h *Handler) action(w http.ResponseWriter, r *http.Request, vm, disk, verb string) {
	if verb == "series" {
		if h.opts.Series == nil {
			telemetry.JSONError(w, http.StatusNotFound, "not found")
			return
		}
		if h.reg.Lookup(vm, disk) == nil {
			telemetry.JSONError(w, http.StatusNotFound, "unknown virtual disk")
			return
		}
		h.opts.Series.ServeSeries(w, r, vm, disk)
		return
	}
	c := h.lookup(w, vm, disk)
	if c == nil {
		return
	}
	switch verb {
	case "histogram":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		s := c.Snapshot()
		if s == nil {
			telemetry.JSONError(w, http.StatusConflict, "service never enabled for this disk")
			return
		}
		metric := core.Metric(r.URL.Query().Get("metric"))
		if metric == "" {
			metric = core.MetricIOLength
		}
		class := core.All
		switch r.URL.Query().Get("class") {
		case "", "all":
		case "reads":
			class = core.Reads
		case "writes":
			class = core.Writes
		default:
			telemetry.JSONError(w, http.StatusBadRequest, "unknown class")
			return
		}
		hist := s.Histogram(metric, class)
		if hist == nil {
			telemetry.JSONError(w, http.StatusBadRequest, "unknown metric")
			return
		}
		h.control("snapshot", vm, disk)
		telemetry.WriteJSON(w, hist)
	case "fingerprint":
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		s := c.Snapshot()
		if s == nil {
			telemetry.JSONError(w, http.StatusConflict, "service never enabled for this disk")
			return
		}
		h.control("snapshot", vm, disk)
		fp := core.FingerprintOf(s)
		telemetry.WriteJSON(w, struct {
			core.Fingerprint
			Recommendations []string `json:"recommendations"`
		}{fp, fp.Recommendations()})
	case "enable", "disable", "reset":
		if r.Method != http.MethodPost {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodPost)
			return
		}
		switch verb {
		case "enable":
			c.Enable()
		case "disable":
			c.Disable()
		case "reset":
			c.Reset()
		}
		h.control(verb, vm, disk)
		telemetry.WriteJSON(w, map[string]bool{"enabled": c.Enabled()})
	default:
		telemetry.JSONError(w, http.StatusNotFound, "not found")
	}
}

// jsonError writes a JSON error body with the given status, setting the
// Allow header when allowed methods are supplied (mandatory on 405).

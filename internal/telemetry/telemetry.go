// Package telemetry is the observability layer for the characterization
// service itself. The paper's pitch is a service cheap enough to leave
// always on and inspect online (§5.2's /proc/vmware nodes, Table 2's
// overhead numbers); this package makes the reproduction hold itself to
// that standard:
//
//   - a hand-rolled Prometheus text-format Exporter (GET /metrics) over a
//     core.Registry: per-vdisk command counters, the six paper histograms
//     as cumulative Prometheus histograms (the paper's irregular bin edges
//     become `le` bounds), and the collectors' self-telemetry — so Table
//     2's overhead is a live, scrapeable metric;
//   - one registration seam, Exporter.With: each subsystem (fleet
//     aggregator, re-exporter, pipeline tracker, datacenter sim)
//     implements MetricsWriter and renders its own families through
//     PromWriter, so this package knows none of their types;
//   - one bounded lock-free event Ring and one Chrome trace-event writer
//     (WriteChromeTrace over Spans), shared by the LifecycleTracer here
//     and by internal/fleetobs's pipeline tracker;
//   - a LifecycleTracer: a Ring of issue/complete and enable/disable/
//     reset/snapshot events exported as Chrome trace JSON
//     (GET /debug/trace), built on internal/trace's record format;
//   - a Streamer: a periodic sampler retaining a bounded ring of
//     per-interval delta snapshots per vdisk, served as a JSON time series
//     (GET /disks/{vm}/{disk}/series) and as a live SSE feed (GET /watch).
//
// Everything here reads the concurrency-safe surfaces built in
// internal/core (atomic snapshots, RWMutex registry), so all handlers can
// serve while simulations run — including the parallel multi-VM driver's
// worlds. No external dependencies: the Prometheus exposition format and
// SSE are both plain text over HTTP.
package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
)

// DiskStatsSource reports the vSCSI-layer lifetime counters of one virtual
// disk: commands issued, completed and errored, plus the in-flight gauge.
// hypervisor.Host and hypervisor.ParallelSim implement it; the exporter
// uses it to publish the disk-level view next to the collector-level one.
type DiskStatsSource interface {
	DiskCounters(vm, disk string) (issued, completed, errored uint64, inflight int64, ok bool)
}

// JSONError writes a JSON error body ({"error": msg}) with the given
// status and Content-Type: application/json, setting the Allow header
// when allowed methods are supplied (every 405 should). It is the one
// error contract of every HTTP surface in the tree.
func JSONError(w http.ResponseWriter, code int, msg string, allow ...string) {
	if len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON writes v as an indented JSON 200 response, or a JSONError
// 500 when v does not encode (the encoder writes nothing on failure).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		JSONError(w, http.StatusInternalServerError, err.Error())
	}
}

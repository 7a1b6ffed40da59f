package fleetobs

import (
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"vscsistats/internal/telemetry"
)

// getOnly answers anything but GET with a JSON 405 and reports whether
// the request may proceed.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return false
	}
	return true
}

// parseLimit reads the limit= query parameter (0 when absent), answering
// a malformed one with a JSON 400.
func parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	s := r.URL.Query().Get("limit")
	if s == "" {
		return 0, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		telemetry.JSONError(w, http.StatusBadRequest, "bad limit")
		return 0, false
	}
	return n, true
}

// ServeEvents handles GET /fleet/events: the event ring as JSON,
// oldest first. Query parameters: kind= and host= filter, limit=
// bounds the result (default: the whole ring).
func (t *Tracker) ServeEvents(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	kind := r.URL.Query().Get("kind")
	host := r.URL.Query().Get("host")
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	events := t.Events(0)
	filtered := events[:0:0]
	for _, e := range events {
		if kind != "" && e.Kind != kind {
			continue
		}
		if host != "" && e.Host != host {
			continue
		}
		filtered = append(filtered, e)
	}
	if limit > 0 && len(filtered) > limit {
		filtered = filtered[len(filtered)-limit:]
	}
	telemetry.WriteJSON(w, map[string]any{
		"total":  t.EventsTotal(),
		"events": filtered,
	})
}

// ServeSlow handles GET /fleet/slow: the retained slowest operations,
// slowest first. threshold= takes a Go duration ("10ms") or an integer
// nanosecond count; limit= bounds the result.
func (t *Tracker) ServeSlow(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	var threshold time.Duration
	if s := r.URL.Query().Get("threshold"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			n, nerr := strconv.ParseInt(s, 10, 64)
			if nerr != nil {
				telemetry.JSONError(w, http.StatusBadRequest, "bad threshold (want duration like 10ms or integer nanos)")
				return
			}
			d = time.Duration(n)
		}
		threshold = d
	}
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	telemetry.WriteJSON(w, map[string]any{
		"threshold_nanos": threshold.Nanoseconds(),
		"ops":             t.Slowest(threshold, limit),
	})
}

// ChromeTraceHandler serves the event ring in the Chrome trace-event
// format (load in chrome://tracing or Perfetto).
func (t *Tracker) ChromeTraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !getOnly(w, r) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		t.WriteChromeTrace(w)
	})
}

// WriteChromeTrace renders the current event ring as a Chrome
// trace-event JSON array. Hosts map to processes (events without a host
// group under their scope, or "fleet"), stages and event kinds to
// threads. Timed events become slices whose start is end-time minus
// duration; instantaneous events become instants.
func (t *Tracker) WriteChromeTrace(w io.Writer) error {
	events := t.Events(0)
	spans := make([]telemetry.Span, len(events))
	for i, e := range events {
		sp := telemetry.Span{Process: cmp.Or(e.Host, e.Scope, "fleet"), Thread: cmp.Or(e.Stage, e.Kind), Cat: "pipeline"}
		sp.Name = sp.Thread
		if e.Cause != "" {
			sp.Name += ":" + e.Cause
		}
		if e.Kind != KindStage {
			sp.Cat = "control"
		}
		if e.DurationNanos > 0 {
			sp.Ts, sp.Dur = (e.UnixNano-e.DurationNanos)/1000, e.DurationNanos/1000
		} else {
			sp.Ts, sp.Instant = e.UnixNano/1000, "p"
		}
		sp.Args, _ = json.Marshal(map[string]any{
			"seq": e.Seq, "trace_id": e.TraceID, "batch_seq": e.BatchSeq,
			"shard": e.Shard, "cause": e.Cause, "detail": e.Detail,
		})
		spans[i] = sp
	}
	return telemetry.WriteChromeTrace(w, spans)
}

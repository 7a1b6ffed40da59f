package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client-side span id ("id/req") to the server's
// timing handler, so the handler span is parented under the round trip
// that caused it. The aggregator ignores the header.
const spanHeader = "X-E2ebench-Span"

// timingTransport is the timing http.RoundTripper handed to agents
// (vscsim.SimConfig.Client) and re-exporters: it times every round trip
// from request start to response headers, counts request bytes and
// non-2xx answers, and, when a tracer is set, records a span parented
// under the caller's current span.
type timingTransport struct {
	base   *http.Transport
	name   string
	lane   int
	tracer atomic.Pointer[tracer]
	parent atomic.Int32

	lat    latencies // ms, one per round trip
	n      atomic.Int64
	failed atomic.Int64
	bytes  atomic.Int64
	reqs   atomic.Int64
}

// newTimingTransport opens at most one connection: every caller is a
// closed loop that waits for its reply, so one connection per pusher is
// all the load the benchmark generates.
func newTimingTransport(name string, lane int) *timingTransport {
	t := &timingTransport{
		base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		name: name, lane: lane,
	}
	t.parent.Store(noSpan)
	return t
}

func (t *timingTransport) client() *http.Client { return &http.Client{Transport: t} }

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.tracer.Load()
	req := t.reqs.Add(1)
	id := tr.start(t.name, t.lane, t.parent.Load(), req)
	if id != noSpan {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, req))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	d := time.Since(t0)
	tr.finish(id)
	t.n.Add(1)
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	if err != nil || resp.StatusCode/100 != 2 {
		t.failed.Add(1)
	}
	t.lat.add(ms(d))
	return resp, err
}

// timingHandler is the timing http.Handler around an Aggregator: when
// traced it records a span per request (decode, apply, log append), and it
// can keep a copy of every pushed frame so the codec can be re-timed on
// this run's own frames.
type timingHandler struct {
	next   http.Handler
	name   string
	lane   int
	tracer atomic.Pointer[tracer]

	capture bool
	mu      sync.Mutex
	frames  [][]byte
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tracer.Load()
	id := noSpan
	if tr != nil {
		parent, req := noSpan, int64(0)
		if v := r.Header.Get(spanHeader); v != "" {
			var p int32
			if _, err := fmt.Sscanf(v, "%d/%d", &p, &req); err == nil {
				parent = p
			}
		}
		id = tr.start(h.name, h.lane, parent, req)
	}
	if h.capture && r.Method == http.MethodPost {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			tr.finish(id)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.mu.Lock()
		h.frames = append(h.frames, body)
		h.mu.Unlock()
	}
	h.next.ServeHTTP(w, r)
	tr.finish(id)
}

// captured returns the frames pushed so far.
func (h *timingHandler) captured() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.frames
}

// server is one loopback HTTP server.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/vscsim"
)

// window is one History query, as indices into the round boundaries.
type window struct{ from, to int }

// fleetHistory is the fleet-history workload: the read path of the same
// codec and segment log fleet-churn writes. Set-up fills one aggregator's
// log from a seeded churn and records the round boundaries. A step closes
// the aggregator, reopens it with OpenAggregator (boot replay), and runs
// one of a fixed set of History windows whose edges are those boundaries.
type fleetHistory struct {
	cfg     fleet.AggregatorConfig
	agg     *fleet.Aggregator
	pre     *core.Snapshot // cluster view before the first restart
	bounds  []time.Time    // bounds[0] precedes every frame; bounds[r+1] follows round r
	counts  []int64        // cluster commands at each bound
	windows []window
	next    int // steps run, choosing the next window
	p       *phase

	// the current step's boot, for its throughput sample
	stepFrames int64
	stepBusy   time.Duration

	// traced-phase counters for the per-layer metrics
	boots      []time.Duration
	bootSpans  []int32
	bootFrames int64
	queries    int
	qTime      time.Duration
	qFrames    int64
}

func newFleetHistory(e env) (workload, error) {
	w := &fleetHistory{cfg: fleet.AggregatorConfig{StaleAfter: time.Hour, DataDir: filepath.Join(e.dir, "log")}}
	var err error
	if w.agg, _, err = fleet.OpenAggregator(w.cfg); err != nil {
		return nil, err
	}
	srv, err := serve(w.agg)
	if err != nil {
		w.agg.Close()
		return nil, err
	}
	defer srv.close()
	// The fill is set-up, not measured: one connection per sim worker.
	fill := &http.Transport{MaxConnsPerHost: runtime.GOMAXPROCS(0), MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}
	defer fill.CloseIdleConnections()
	inv := vscsim.NewInventory(vscsim.Config{
		Seed:       e.seed*16 + 7,
		Hosts:      e.size.historyHosts,
		VMsPerHost: e.size.vmsPerHost,
		Intensity:  fleetIntensity,
	})
	sim, err := vscsim.New(inv, vscsim.SimConfig{Push: srv.url + "/fleet/push", Client: &http.Client{Transport: fill}})
	if err != nil {
		w.agg.Close()
		return nil, err
	}
	w.bounds = append(w.bounds, time.Now())
	w.counts = append(w.counts, 0)
	for r := 0; r < e.size.historyRounds; r++ {
		if err := sim.RunVirtual(roundVirtual); err != nil {
			w.agg.Close()
			return nil, err
		}
		if err := sim.PushAll(); err != nil {
			w.agg.Close()
			return nil, fmt.Errorf("fill round %d: %w", r, err)
		}
		w.bounds = append(w.bounds, time.Now())
		w.counts = append(w.counts, w.agg.ClusterSnapshot(true).Commands)
	}
	w.pre = w.agg.ClusterSnapshot(true)
	w.windows = historyWindows(e.size.historyRounds)
	return w, nil
}

// historyWindows is the fixed query set over R rounds: the whole log, the
// two halves of what followed the initial full push, and the last round
// alone.
func historyWindows(rounds int) []window {
	mid := 1 + (rounds-1)/2
	return []window{{0, rounds}, {1, mid}, {mid, rounds}, {rounds - 1, rounds}}
}

func (w *fleetHistory) begin(p *phase) {
	w.p = p
	w.boots, w.bootSpans = nil, nil
	w.bootFrames, w.queries, w.qTime, w.qFrames = 0, 0, 0, 0
}

// step restarts the aggregator, then runs the next History window in
// turn. Every step does the same work, so its heap peak and throughput
// compare across steps, and every step yields a boot sample.
func (w *fleetHistory) step(tr *tracer, parent int32, req int64) error {
	win := w.windows[w.next%len(w.windows)]
	w.next++
	span := tr.start("history.step", 0, parent, req)
	defer tr.finish(span)
	if err := w.restart(tr, span, req); err != nil {
		return err
	}
	return w.query(tr, span, req, win)
}

// restart closes the aggregator and reopens it from its log (boot
// replay); the reopened cluster view must equal the pre-restart one.
func (w *fleetHistory) restart(tr *tracer, span int32, req int64) error {
	t0 := time.Now()
	id := tr.start("fleet.close", 0, span, req)
	err := w.agg.Close()
	tr.finish(id)
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	w.p.attempted++
	boot := tr.start("fleet.boot", 0, span, req)
	tb := time.Now()
	agg, st, err := fleet.OpenAggregator(w.cfg)
	bootD := time.Since(tb)
	tr.finish(boot)
	if err != nil {
		w.p.failed++
		return fmt.Errorf("boot: %w", err)
	}
	w.agg = agg
	id = tr.start("fleet.cluster_snapshot", 0, span, req)
	cluster := agg.ClusterSnapshot(true)
	tr.finish(id)
	w.p.fresh = append(w.p.fresh, ms(time.Since(t0)))
	w.stepFrames, w.stepBusy = st.Frames, bootD
	w.p.ops += st.Frames
	w.boots = append(w.boots, bootD)
	w.bootSpans = append(w.bootSpans, boot)
	w.bootFrames = st.Frames

	id = tr.start("bench.check", 0, span, req)
	defer tr.finish(id)
	return checkSame("fleet-history reopened vs pre-restart cluster", cluster, w.pre)
}

// query runs one History window and checks it.
func (w *fleetHistory) query(tr *tracer, parent int32, req int64, win window) error {
	id := tr.start("fleet.history", 0, parent, req)
	t0 := time.Now()
	res, err := w.agg.History(w.bounds[win.from], w.bounds[win.to])
	d := time.Since(t0)
	tr.finish(id)
	w.p.attempted++
	if err != nil {
		w.p.failed++
		return fmt.Errorf("history window (%d,%d]: %w", win.from, win.to, err)
	}
	w.p.latency = append(w.p.latency, ms(d))
	w.p.rates = append(w.p.rates, float64(w.stepFrames+res.Frames)/(w.stepBusy+d).Seconds())
	w.p.ops += res.Frames
	w.queries++
	w.qTime += d
	w.qFrames += res.Frames

	id = tr.start("bench.check", 0, parent, req)
	defer tr.finish(id)
	return w.checkWindow(win, res)
}

// checkWindow: the whole log equals the final cluster view; any window's
// command count equals the difference of the counts at its edges.
func (w *fleetHistory) checkWindow(win window, res *fleet.HistoryResult) error {
	what := fmt.Sprintf("fleet-history window (%d,%d]", win.from, win.to)
	if win.from == 0 && win.to == len(w.bounds)-1 {
		if err := checkSame(what+" vs final cluster", res.Cluster, w.pre); err != nil {
			return err
		}
	}
	return checkWindow(what, res, w.counts[win.to]-w.counts[win.from])
}

func (w *fleetHistory) check() error { return nil }

func (w *fleetHistory) named(p *phase) []metric {
	boot := median(p.fresh) // close → reopened → first cluster view
	return []metric{
		{Name: "boot_s", Value: boot / 1e3, Unit: "s"},
		{Name: "history_p50_ms", Value: quantile(p.latency, 0.5), Unit: "ms"},
		{Name: "history_p90_ms", Value: quantile(p.latency, 0.9), Unit: "ms"},
	}
}

// decodeLog decodes every frame of the segment log from outside, with
// fleet.DecodeBatch over the .seg files, and returns the decode time per
// frame: the fastest of decodePasses passes, so a pass slowed by the host
// does not make decode look dearer than the boots it is subtracted from.
func (w *fleetHistory) decodeLog() (frames int64, perFrame time.Duration, logBytes int64, err error) {
	var segs [][]byte
	err = filepath.Walk(w.cfg.DataDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		b, err := os.ReadFile(path)
		segs = append(segs, b)
		logBytes += int64(len(b))
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for pass := 0; pass < decodePasses; pass++ {
		frames = 0
		t0 := time.Now()
		for _, seg := range segs {
			r := bytes.NewReader(seg)
			for {
				if _, err := fleet.DecodeBatch(r); err != nil {
					if errors.Is(err, io.EOF) {
						break
					}
					return 0, 0, 0, err
				}
				frames++
			}
		}
		if frames == 0 {
			break
		}
		if d := time.Since(t0) / time.Duration(frames); pass == 0 || d < perFrame {
			perFrame = d
		}
	}
	return frames, perFrame, logBytes, nil
}

const decodePasses = 3

func (w *fleetHistory) layers(tr *tracer, p *phase, m map[string]float64) error {
	frames, perFrame, logBytes, err := w.decodeLog()
	if err != nil {
		return err
	}
	decode := time.Duration(frames) * perFrame
	for _, id := range w.bootSpans {
		tr.attribute(id, "fleet.boot_decode", decode)
	}
	var boots []float64
	for _, b := range w.boots {
		boots = append(boots, b.Seconds())
	}
	m["fleet.boot_frames"] = float64(w.bootFrames)
	m["fleet.log_bytes"] = float64(logBytes)
	m["fleet.log_decode_ns_per_frame"] = float64(perFrame.Nanoseconds())
	m["fleet.boot_apply_s"] = median(boots) - decode.Seconds()
	if w.queries > 0 {
		m["fleet.history_frames_per_query"] = float64(w.qFrames) / float64(w.queries)
	}
	if w.qFrames > 0 {
		m["fleet.history_ns_per_frame"] = float64(w.qTime.Nanoseconds()) / float64(w.qFrames)
	}
	return nil
}

func (w *fleetHistory) close() {
	if w.agg != nil {
		w.agg.Close()
	}
}

package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/vscsim"
)

// roundVirtual is the virtual time each churn round simulates, one agent
// push interval.
const roundVirtual = 2 * time.Second

// fleetIntensity scales every VM's drawn I/O intensity. At 4 nearly every
// VM issues I/O in every round, so each delta frame carries every disk and
// the per-frame cost does not swing with how many idle VMs a seed draws.
const fleetIntensity = 4

// region is one region of the fleet-churn tree: a vscsim world whose
// agents push to a region aggregator with a segment log, which re-exports
// its rollup to the global tier.
type region struct {
	name    string
	sim     *vscsim.Sim
	agg     *fleet.Aggregator
	handler *timingHandler
	srv     *server
	rt      *timingTransport
	rex     *fleet.ReExporter
	lane    int
}

// fleetChurn is the fleet-churn workload: two regions of vscsim hosts,
// each behind a region aggregator with its segment log on, re-exporting
// to a global aggregator, all over loopback HTTP. A step is one round:
// RunVirtual, PushAll on both regions, ReExportNow on both, then the
// operator's scrape of the global tier.
type fleetChurn struct {
	regions  []*region
	global   *fleet.Aggregator
	ghandler *timingHandler
	gsrv     *server
	rexRT    *timingTransport
	exporter *telemetry.Exporter
	parallel bool // regions run concurrently (nproc >= 2)

	p       *phase
	base    churnCounters // at the end of set-up
	begun   churnCounters // at the start of the current phase
	seen    churnCounters // after the previous step
	capFrom []int         // per region: captured frames before the current phase
	scrapes int
	scrapeB int64
}

// churnCounters are the program's own cumulative counters, read between
// steps.
type churnCounters struct {
	ops                                    int64
	deltaPushes, errors, retries, resyncs  int64
	logAppendBytes, logFsyncs              int64
	rexBytes, rexResyncs, rexErrors        int64
	rtN, rtFailed, rtBytes, rexN, rexFails int64
}

func newFleetChurn(e env) (workload, error) {
	w := &fleetChurn{parallel: runtime.NumCPU() >= 2}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	w.global = fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour})
	w.ghandler = &timingHandler{next: w.global, name: "fleet.global_ingest", lane: 5}
	var err error
	if w.gsrv, err = serve(w.ghandler); err != nil {
		return nil, err
	}
	w.rexRT = newTimingTransport("fleet.reexport_rtt", 0)
	w.exporter = telemetry.NewExporter(core.NewRegistry()).WithFleet(w.global)
	for i, name := range []string{"region-a", "region-b"} {
		r := &region{name: name, lane: 1 + i}
		w.regions = append(w.regions, r)
		r.agg, _, err = fleet.OpenAggregator(fleet.AggregatorConfig{
			StaleAfter: time.Hour,
			DataDir:    filepath.Join(e.dir, name),
		})
		if err != nil {
			return nil, err
		}
		r.handler = &timingHandler{next: r.agg, name: "fleet.region_ingest", lane: 3 + i, capture: e.traced}
		if r.srv, err = serve(r.handler); err != nil {
			return nil, err
		}
		r.rt = newTimingTransport("fleet.push_rtt", r.lane)
		inv := vscsim.NewInventory(vscsim.Config{
			Seed:       e.seed*16 + int64(i),
			Hosts:      e.size.churnHosts,
			VMsPerHost: e.size.vmsPerHost,
			Intensity:  fleetIntensity,
		})
		r.sim, err = vscsim.New(inv, vscsim.SimConfig{
			Push:    r.srv.url + "/fleet/push",
			Workers: 1,
			Client:  r.rt.client(),
		})
		if err != nil {
			return nil, err
		}
		r.rex = fleet.NewReExporter(r.agg, fleet.ReExporterConfig{
			Region:   name,
			Upstream: w.gsrv.url + "/fleet/push",
			Client:   w.rexRT.client(),
		})
	}
	// Warm-up: one round of full pushes and full re-exports, so the timed
	// rounds are steady-state deltas.
	w.begin(&phase{})
	if err := w.step(nil, noSpan, -1); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	w.base = w.counters()
	ok = true
	return w, nil
}

// eachRegion runs fn on every region, concurrently when there are at
// least two CPUs (one closed-loop pusher per region), else in turn.
func (w *fleetChurn) eachRegion(fn func(*region) error) error {
	errs := make([]error, len(w.regions))
	if !w.parallel {
		for i, r := range w.regions {
			errs[i] = fn(r)
		}
	} else {
		var wg sync.WaitGroup
		for i, r := range w.regions {
			wg.Add(1)
			go func(i int, r *region) {
				defer wg.Done()
				errs[i] = fn(r)
			}(i, r)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetChurn) counters() churnCounters {
	var c churnCounters
	for _, r := range w.regions {
		st := r.sim.Stats()
		c.ops += st.Ops
		c.deltaPushes += st.Agent.DeltaPushes
		c.errors += st.Agent.Errors
		c.retries += st.Agent.Retries
		c.resyncs += st.Agent.Resyncs
		ls := r.agg.LogStats()
		c.logAppendBytes += ls.AppendBytes
		c.logFsyncs += ls.Fsyncs
		rs := r.rex.Stats()
		c.rexBytes += rs.SentBytes
		c.rexResyncs += rs.Resyncs
		c.rexErrors += rs.Errors
		c.rtN += r.rt.n.Load()
		c.rtFailed += r.rt.failed.Load()
		c.rtBytes += r.rt.bytes.Load()
	}
	c.rexN = w.rexRT.n.Load()
	c.rexFails = w.rexRT.failed.Load()
	return c
}

func (w *fleetChurn) begin(p *phase) {
	w.p = p
	w.begun = w.counters()
	w.seen = w.begun
	w.capFrom = w.capFrom[:0]
	for _, r := range w.regions {
		w.capFrom = append(w.capFrom, len(r.handler.captured()))
	}
	w.scrapes, w.scrapeB = 0, 0
}

func (w *fleetChurn) setTracer(tr *tracer) {
	w.ghandler.tracer.Store(tr)
	w.rexRT.tracer.Store(tr)
	for _, r := range w.regions {
		r.handler.tracer.Store(tr)
		r.rt.tracer.Store(tr)
	}
}

func (w *fleetChurn) step(tr *tracer, parent int32, req int64) error {
	w.setTracer(tr)
	round := tr.start("churn.round", 0, parent, req)
	defer tr.finish(round)

	// 1. Guests run one push interval of virtual time.
	if err := w.eachRegion(func(r *region) error {
		id := tr.start("vscsim.run_virtual", r.lane, round, req)
		defer tr.finish(id)
		return r.sim.RunVirtual(roundVirtual)
	}); err != nil {
		return err
	}

	// 2. Every host pushes; one closed-loop pusher per region.
	t0 := time.Now()
	phaseID := tr.start("fleet.push_phase", 0, round, req)
	pushErr := w.eachRegion(func(r *region) error {
		id := tr.start("vscsim.push_all", r.lane, phaseID, req)
		defer tr.finish(id)
		r.rt.parent.Store(id)
		return r.sim.PushAll()
	})
	tr.finish(phaseID)
	pushWall := time.Since(t0)

	// 3. Both regions re-export their rollups to the global tier.
	for _, r := range w.regions {
		id := tr.start("fleet.reexport", 0, round, req)
		w.rexRT.parent.Store(id)
		err := r.rex.ReExportNow()
		tr.finish(id)
		if err != nil {
			return fmt.Errorf("%s re-export: %w", r.name, err)
		}
	}

	// 4. The operator scrapes the global tier.
	id := tr.start("fleet.cluster_snapshot", 0, round, req)
	cluster := w.global.ClusterSnapshot(false)
	tr.finish(id)
	id = tr.start("fleet.vm_snapshots", 0, round, req)
	vms := w.global.VMSnapshots(false)
	tr.finish(id)
	id = tr.start("telemetry.write", 0, round, req)
	var buf bytes.Buffer
	err := w.exporter.Write(&buf)
	tr.finish(id)
	fresh := time.Since(t0)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	w.scrapes++
	w.scrapeB += int64(buf.Len())

	c := w.counters()
	pushes := c.rtN - w.seen.rtN
	w.p.attempted += pushes + c.rexN - w.seen.rexN
	w.p.failed += c.rtFailed - w.seen.rtFailed + c.rexFails - w.seen.rexFails
	w.p.ops += pushes
	w.p.rates = append(w.p.rates, float64(pushes)/pushWall.Seconds())
	w.p.fresh = append(w.p.fresh, ms(fresh))
	for _, r := range w.regions {
		w.p.latency = append(w.p.latency, r.rt.lat.take()...)
	}
	w.rexRT.lat.take()
	w.seen = c
	if pushErr != nil {
		return fmt.Errorf("push: %w", pushErr)
	}

	// The round's check: the global view is bin-exactly the merge of the
	// two regions' views, and it holds this round's commands.
	id = tr.start("bench.check", 0, round, req)
	defer tr.finish(id)
	var parts []*core.Snapshot
	for _, r := range w.regions {
		parts = append(parts, r.agg.ClusterSnapshot(false))
	}
	if len(vms) != len(w.regions) {
		return checkf("fleet-churn round %d: global tier shows %d region VMs, want %d", req, len(vms), len(w.regions))
	}
	return checkSame(fmt.Sprintf("fleet-churn round %d global vs merged regions", req), cluster, core.Aggregate("cluster", "*", parts...))
}

// check: steady-state rounds resynced nothing and no push failed.
func (w *fleetChurn) check() error {
	c := w.counters()
	if n := c.resyncs - w.base.resyncs + c.rexResyncs - w.base.rexResyncs; n != 0 {
		return checkf("fleet-churn: %d resyncs in steady-state rounds", n)
	}
	if n := c.errors - w.base.errors + c.rexErrors - w.base.rexErrors; n != 0 {
		return checkf("fleet-churn: %d failed pushes", n)
	}
	return nil
}

func (w *fleetChurn) named(p *phase) []metric {
	return []metric{
		{Name: "pushes_per_s", Value: median(p.rates), Unit: "push/s"},
		{Name: "push_p50_ms", Value: quantile(p.latency, 0.5), Unit: "ms"},
		{Name: "push_p90_ms", Value: quantile(p.latency, 0.9), Unit: "ms"},
		{Name: "freshness_p50_ms", Value: median(p.fresh), Unit: "ms"},
	}
}

func (w *fleetChurn) layers(tr *tracer, p *phase, m map[string]float64) error {
	c, b := w.counters(), w.begun
	m["vscsim.run_busy_s"] = tr.busy("vscsim.run_virtual").Seconds()
	m["vscsim.guest_ops"] = float64(c.ops - b.ops)
	m["fleet.push_phase_s"] = tr.busy("fleet.push_phase").Seconds()
	rtt := tr.busy("fleet.push_rtt")
	m["fleet.rtt_busy_s"] = rtt.Seconds()
	m["fleet.agent_side_s"] = (tr.busy("vscsim.push_all") - rtt).Seconds()
	m["fleet.region_ingest_busy_s"] = tr.busy("fleet.region_ingest").Seconds()
	m["fleet.push_p99_ms"] = quantile(p.latency, 0.99)
	if n := c.rtN - b.rtN; n > 0 {
		m["fleet.wire_bytes_per_push"] = float64(c.rtBytes-b.rtBytes) / float64(n)
		m["fleet.delta_push_ratio"] = float64(c.deltaPushes-b.deltaPushes) / float64(n)
	}
	m["fleet.resyncs"] = float64(c.resyncs - b.resyncs + c.rexResyncs - b.rexResyncs)
	m["fleet.push_errors"] = float64(c.errors - b.errors + c.rexErrors - b.rexErrors)
	m["fleet.retries"] = float64(c.retries - b.retries)
	m["fleet.log_append_bytes"] = float64(c.logAppendBytes - b.logAppendBytes)
	m["fleet.log_fsyncs"] = float64(c.logFsyncs - b.logFsyncs)
	m["fleet.reexport_busy_s"] = tr.busy("fleet.reexport").Seconds()
	m["fleet.reexport_bytes"] = float64(c.rexBytes - b.rexBytes)
	m["fleet.global_ingest_busy_s"] = tr.busy("fleet.global_ingest").Seconds()
	m["fleet.merge_busy_s"] = (tr.busy("fleet.cluster_snapshot") + tr.busy("fleet.vm_snapshots")).Seconds()
	m["telemetry.scrape_busy_s"] = tr.busy("telemetry.write").Seconds()
	if w.scrapes > 0 {
		m["telemetry.scrape_bytes"] = float64(w.scrapeB) / float64(w.scrapes)
	}
	var cs codecStats
	for i, r := range w.regions {
		if err := cs.add(r.handler.captured(), w.capFrom[i]); err != nil {
			return fmt.Errorf("%s frames: %w", r.name, err)
		}
	}
	cs.report(m)
	return nil
}

func (w *fleetChurn) close() {
	for _, r := range w.regions {
		if r.srv != nil {
			r.srv.close()
		}
		if r.rt != nil {
			r.rt.base.CloseIdleConnections()
		}
		if r.agg != nil {
			r.agg.Close()
		}
	}
	if w.gsrv != nil {
		w.gsrv.close()
	}
	if w.rexRT != nil {
		w.rexRT.base.CloseIdleConnections()
	}
}

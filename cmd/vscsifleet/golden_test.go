package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"vscsistats"
	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/telemetry/promtest"
	"vscsistats/internal/vscsi"
)

// The golden tests pin every observability surface of the three
// vscsifleet wirings — aggregator, agent and sim — byte for byte against
// testdata/. Only values derived from the wall clock are masked; events
// the tests feed themselves carry fixed timestamps and durations and are
// compared exactly. Regenerate with: go test ./cmd/vscsifleet -update
var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// epoch is the fixed wall time stamped on fed batches and events.
const epoch = int64(1_700_000_000_000_000_000)

// masks replaces the value of every matching line or field with 0.
type masks []*regexp.Regexp

func (m masks) apply(s string) string {
	for _, re := range m {
		s = re.ReplaceAllString(s, "${1}0")
	}
	return s
}

// metricMask masks the sample values of the named families (histogram
// _bucket and _sum lines included, _count kept).
func metricMask(families ...string) *regexp.Regexp {
	return regexp.MustCompile(`(?m)^((?:` + strings.Join(families, "|") + `)(?:_bucket|_sum)?(?:\{[^\n]*\})? )\S+$`)
}

// jsonMask masks one integer field of a JSON body.
func jsonMask(field string) *regexp.Regexp {
	return regexp.MustCompile(`("` + field + `": ?)-?\d+`)
}

// get serves one GET through h and returns the 200 body.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs from the golden file at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
			}
		}
	}
}

// goldenMetrics scrapes /metrics twice (so the scrape-duration and
// snapshot-staleness gauges are live), validates the second scrape with
// the strict parser and compares it masked.
func goldenMetrics(t *testing.T, h http.Handler, name string, m masks) {
	t.Helper()
	get(t, h, "/metrics")
	body := get(t, h, "/metrics")
	promtest.Parse(t, body)
	golden(t, name, m.apply(body))
}

// traceSpan is one Chrome trace event with its pid/tid resolved to the
// process and thread names, so two traces compare independently of how
// their ids were numbered.
type traceSpan struct {
	Process, Thread, Ph, Name, Cat string
	Ts, Dur                        int64
	Args                           string
}

// goldenTrace compares a Chrome trace-event body with the golden trace
// as a sorted list of traceSpans, masking ts and dur when wallClock is
// set.
func goldenTrace(t *testing.T, h http.Handler, path, name string, wallClock bool) {
	t.Helper()
	body := get(t, h, path)
	if !*update {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		got, exp := traceSpans(t, body, wallClock), traceSpans(t, string(want), wallClock)
		if len(got) != len(exp) {
			t.Fatalf("%s: %d spans, golden has %d", name, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("%s: span %d differs:\n got: %+v\nwant: %+v", name, i, got[i], exp[i])
			}
		}
		return
	}
	traceSpans(t, body, wallClock)
	golden(t, name, body)
}

func traceSpans(t *testing.T, body string, wallClock bool) []traceSpan {
	t.Helper()
	var events []struct {
		Ph   string          `json:"ph"`
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   int64           `json:"ts"`
		Dur  int64           `json:"dur"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	for _, e := range events {
		if e.Ph != "M" {
			continue
		}
		var a struct{ Name string }
		if err := json.Unmarshal(e.Args, &a); err != nil {
			t.Fatal(err)
		}
		switch e.Name {
		case "process_name":
			procs[e.Pid] = a.Name
		case "thread_name":
			threads[[2]int{e.Pid, e.Tid}] = a.Name
		}
	}
	var out []traceSpan
	for _, e := range events {
		sp := traceSpan{Process: procs[e.Pid], Ph: e.Ph, Name: e.Name, Cat: e.Cat, Ts: e.Ts, Dur: e.Dur, Args: string(e.Args)}
		if e.Ph == "M" {
			if e.Name == "thread_name" {
				sp.Thread = threads[[2]int{e.Pid, e.Tid}]
			}
			sp.Args = ""
		} else {
			sp.Thread = threads[[2]int{e.Pid, e.Tid}]
			sp.Name += "/" + e.S
		}
		if wallClock {
			sp.Ts, sp.Dur = 0, 0
		}
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// feed drives n synthetic commands through col, a deterministic stream
// derived from seed mixing reads, writes, seeks, queue depths and an
// occasional error, so every histogram family gets samples.
func feed(col *core.Collector, seed, n int) {
	lba := uint64(seed) * 1000
	ts := simclock.Time(seed) * simclock.Millisecond
	for i := 0; i < n; i++ {
		cmd := scsi.Read(lba, 8)
		if (i+seed)%3 == 0 {
			cmd = scsi.Write(lba, 16)
		}
		r := &vscsi.Request{
			Cmd:                cmd,
			IssueTime:          ts,
			CompleteTime:       ts + simclock.Time(200+i%900)*simclock.Microsecond,
			OutstandingAtIssue: i % 8,
			Status:             scsi.StatusGood,
		}
		if (i+seed)%17 == 0 {
			r.Status = scsi.StatusCheckCondition
		}
		col.OnIssue(r)
		col.OnComplete(r)
		lba += uint64((i*37+seed*11)%4096) - 1024
		ts += simclock.Time(50+i%13) * simclock.Microsecond
	}
}

// batch builds a full batch for host holding one disk per VM.
func batch(host string, seq uint64, sent int64, vms ...string) *vscsistats.SnapshotBatch {
	b := &vscsistats.SnapshotBatch{Host: host, Seq: seq, SentUnixNano: sent, CaptureUnixNano: sent}
	for i, vm := range vms {
		col := core.NewCollector(vm, "scsi0:0")
		col.Enable()
		feed(col, len(host)*7+i*13+int(seq), 40+10*i)
		b.Snapshots = append(b.Snapshots, col.Snapshot())
	}
	return b
}

// TestGoldenAggregator: a logged four-shard aggregator with a stale host
// recovered from its log, a VM name that needs label escaping, a resync,
// a re-exporter and a tracker on the real pipeline.
func TestGoldenAggregator(t *testing.T) {
	dir := t.TempDir()
	cfg := vscsistats.FleetAggregatorConfig{StaleAfter: time.Hour, Shards: 4, DataDir: dir, SyncInterval: -1}

	// A host last heard from years ago, recovered by boot replay with its
	// recorded send time: stale.
	seedAgg, _, err := vscsistats.OpenFleetAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seedAgg.Ingest(batch("esx-stale", 1, epoch, "vm-old"), "push"); err != nil {
		t.Fatal(err)
	}
	if err := seedAgg.Close(); err != nil {
		t.Fatal(err)
	}

	obs := vscsistats.NewFleetObsTracker(vscsistats.FleetObsConfig{})
	cfg.Obs = obs
	agg, _, err := vscsistats.OpenFleetAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for _, b := range []*vscsistats.SnapshotBatch{
		batch("esx-01", 1, epoch+1e9, "vm-a", `vm-"odd"`),
		batch("esx-02", 1, epoch+2e9, "vm-b"),
		batch("esx-03", 2, epoch+3e9, "vm-a", "vm-c"),
	} {
		if err := agg.Ingest(b, "push"); err != nil {
			t.Fatal(err)
		}
	}
	delta := batch("esx-new", 5, epoch+4e9, "vm-d")
	delta.Delta, delta.BaseSeq = true, 4
	if err := agg.Ingest(delta, "push"); err == nil {
		t.Fatal("delta for an unknown host applied")
	}
	rex := vscsistats.NewFleetReExporter(agg, vscsistats.FleetReExporterConfig{
		Region: "region-west", Upstream: "http://127.0.0.1:9/fleet/push",
	})

	h := aggregatorHandler(agg, rex, obs)
	wall := masks{
		jsonMask("unix_nano"), jsonMask("duration_nanos"),
		metricMask("vscsistats_last_scrape_duration_seconds", "vscsistats_fleet_host_age_seconds",
			"vscsistats_fleetobs_stage_duration_nanoseconds"),
	}
	goldenMetrics(t, h, "aggregator.metrics", wall)
	golden(t, "aggregator.events.json", wall.apply(get(t, h, "/fleet/events")))
	golden(t, "aggregator.slow.json", sortedSlow(t, wall.apply(get(t, h, "/fleet/slow"))))
	goldenTrace(t, h, "/debug/fleettrace", "aggregator.fleettrace.json", true)
}

// sortedSlow re-renders a /fleet/slow body with its ops sorted by their
// JSON: once durations are masked, the slowest-first order is not
// reproducible.
func sortedSlow(t *testing.T, body string) string {
	t.Helper()
	var v struct {
		Threshold int64             `json:"threshold_nanos"`
		Ops       []json.RawMessage `json:"ops"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	sort.Slice(v.Ops, func(i, j int) bool { return string(v.Ops[i]) < string(v.Ops[j]) })
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// TestGoldenAgent: a scenario host serving its disks with the vSCSI
// counters, a tracker fed a fixed pipeline history, and a lifecycle
// tracer on the disk.
func TestGoldenAgent(t *testing.T) {
	sc, err := vscsistats.NewScenario("iometer-8k-rand", vscsistats.ScenarioConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracer := vscsistats.NewLifecycleTracer(24)
	sc.VD.Disk.AddObserver(tracer)
	sc.Gen.Start()
	sc.Eng.RunUntil(sc.Warmup)
	sc.VD.Collector.Enable()
	tracer.ControlVerb("enable", sc.VD.Collector.VM(), sc.VD.Collector.Disk())
	sc.Eng.RunUntil(sc.Eng.Now() + vscsistats.Second)
	tracer.ControlVerb("snapshot", sc.VD.Collector.VM(), sc.VD.Collector.Disk())
	tracer.ControlVerb("reset", "vm-other", "scsi0:1")

	obs := vscsistats.NewFleetObsTracker(vscsistats.FleetObsConfig{})
	for seq := uint64(1); seq <= 4; seq++ {
		at := epoch + int64(seq)*2e9
		trace := fmt.Sprintf("esx-01-7-%d", seq)
		for i, st := range []vscsistats.FleetObsStage{0, 1, 2, 3, 4} {
			obs.Observe(st, time.Duration(int64(seq)*int64(i+1)*37_000), vscsistats.FleetObsEvent{
				UnixNano: at + int64(i)*1e6, Host: "esx-01", TraceID: trace, BatchSeq: seq,
			})
		}
	}
	obs.Emit(vscsistats.FleetObsEvent{UnixNano: epoch + 9e9, Kind: "resync", Scope: "agent", Host: "esx-01", BatchSeq: 3, Cause: "seq-gap"})
	obs.Emit(vscsistats.FleetObsEvent{UnixNano: epoch + 10e9, Kind: "replay", Scope: "aggregator", Shard: -1, DurationNanos: 2_500_000, Detail: `frames=3 "quoted"`})
	obs.Emit(vscsistats.FleetObsEvent{UnixNano: epoch + 11e9, Kind: "custom"})

	h := agentHandler(sc.Host.Registry(), sc.Host, obs)
	goldenMetrics(t, h, "agent.metrics", masks{metricMask(
		"vscsistats_last_scrape_duration_seconds", "vscsistats_self_snapshot_staleness_seconds",
		"vscsistats_self_observe_nanoseconds")})
	golden(t, "agent.events.json", eventsBody(t, obs))
	golden(t, "agent.slow.json", slowBody(t, obs))
	goldenTrace(t, h, "/debug/fleettrace", "agent.fleettrace.json", false)
	goldenTrace(t, tracer, "/debug/trace", "agent.trace.json", false)
}

// eventsBody and slowBody serve the tracker's JSON views the way an
// aggregator mounts them under /fleet/.
func eventsBody(t *testing.T, obs *vscsistats.FleetObsTracker) string {
	return get(t, http.HandlerFunc(obs.ServeEvents), "/fleet/events")
}

func slowBody(t *testing.T, obs *vscsistats.FleetObsTracker) string {
	return get(t, http.HandlerFunc(obs.ServeSlow), "/fleet/slow")
}

// TestGoldenSim: the -mode sim surface after a deterministic virtual run
// pushed into an aggregator.
func TestGoldenSim(t *testing.T) {
	agg := vscsistats.NewFleetAggregator(vscsistats.FleetAggregatorConfig{})
	srv := httptest.NewServer(agg)
	defer srv.Close()
	inv := vscsistats.NewSimInventory(vscsistats.SimInventoryConfig{Seed: 42, Hosts: 3, VMsPerHost: 2, DisksPerVM: 1, Intensity: 1})
	sim, err := vscsistats.NewDatacenterSim(inv, vscsistats.DatacenterSimConfig{Push: srv.URL + "/fleet/push", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunVirtual(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	goldenMetrics(t, simHandler(sim), "sim.metrics", masks{metricMask(
		"vscsistats_last_scrape_duration_seconds", "vscsistats_vscsim_wall_seconds", "vscsistats_vscsim_speed")})
}

// Command e2ebench is the repository's end-to-end benchmark. One command
// runs one seeded workload through the public functions of the trace,
// core, vscsim, fleet and telemetry packages, checks the outputs (bin-exact
// where the system promises it), and prints every end-to-end metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 1 the run's second half is traced: spans recorded by the
// benchmark's own wrappers give the per-layer metrics, a self-time ledger
// per workload, and a Chrome-trace JSON file. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullSize, os.Stdout, os.Stderr))
}

// sizes scales every workload.
type sizes struct {
	setups        int // set-ups per run; setup_s is the median of the quieter half
	replayRecords int // records synthesized for replay-msr
	churnHosts    int // vscsim hosts per region on fleet-churn
	historyHosts  int // vscsim hosts filling the fleet-history log
	historyRounds int // churn rounds in that log
	vmsPerHost    int
}

var fullSize = sizes{setups: 5, replayRecords: 1_000_000, churnHosts: 128, historyHosts: 64, historyRounds: 20, vmsPerHost: 4}

// env is what a workload's set-up receives: the seed, the sizes, and a
// fresh directory of its own under the checkout's build directory.
type env struct {
	seed   int64
	size   sizes
	dir    string
	traced bool
}

// phase collects the samples of one timed phase. Workloads append to the
// sample slices; runPhase cuts them into steps.
type phase struct {
	rates     []float64 // per-unit throughput, op/s
	latency   []float64 // per-request latency, ms
	fresh     []float64 // work start until the result is readable, ms
	heapPeaks []float64 // per-step peak heap in use, MiB
	attempted int64
	failed    int64
	ops       int64 // denominator of go.alloc_bytes_per_op
	wall      time.Duration
	stealPct  float64 // CPU time stolen by the hypervisor, % of all CPU time
	gc        gcDelta
	steps     []stepMark
}

// stepMark is where one step's samples end in the phase's slices, and
// the share of CPU time the hypervisor stole while it ran.
type stepMark struct {
	rates, latency, fresh int
	stealPct              float64
}

// quiet returns the samples of the quieter half of the steps (see
// quieter). Every step still counts for attempted and failed, and every
// sample is printed.
func (p *phase) quiet() *phase {
	steals := make([]float64, len(p.steps))
	for i, s := range p.steps {
		steals[i] = s.stealPct
	}
	keep := quieter(steals)
	q := &phase{}
	var prev stepMark
	for i, s := range p.steps {
		if keep[i] {
			q.rates = append(q.rates, p.rates[prev.rates:s.rates]...)
			q.latency = append(q.latency, p.latency[prev.latency:s.latency]...)
			q.fresh = append(q.fresh, p.fresh[prev.fresh:s.fresh]...)
			q.heapPeaks = append(q.heapPeaks, p.heapPeaks[i])
		}
		prev = s
	}
	return q
}

// workload is one seeded benchmark workload, built by its spec's set-up.
type workload interface {
	// begin points the workload at the phase its samples go to.
	begin(p *phase)
	// step runs one closed-loop unit of timed work: a replay pass, a
	// churn round, or a restart plus one History window. An error ends
	// the run as incorrect.
	step(tr *tracer, parent int32, req int64) error
	// check runs the correctness checks that need the whole run.
	check() error
	// named returns the workload's own end-to-end metrics, under the
	// names the README documents.
	named(p *phase) []metric
	// layers fills the per-layer metrics from a traced phase.
	layers(tr *tracer, p *phase, m map[string]float64) error
	close()
}

type spec struct {
	name  string
	why   string
	build func(env) (workload, error)
}

var specs = []spec{
	{"replay-msr", "offline characterization of a public-format block trace: parse, demux, observe, aggregate; no fleet code", newReplayMSR},
	{"fleet-churn", "the fleet write path: agent delta render, encode, HTTP, decode, shard apply, log append, re-export, merge, scrape", newFleetChurn},
	{"fleet-history", "the fleet read path over the same codec and log: boot replay and History windows, decode and apply dominate", newFleetHistory},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// BENCHMARK.json order. Each is defined on every workload; README.md maps
// them to the workload-specific names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer a workload does not exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"trace.parse_busy_s", "s"},
	{"trace.parse_ns_per_record", "ns"},
	{"trace.bad_lines", "count"},
	{"trace.order_violations", "count"},
	{"trace.disks", "count"},
	{"trace.batches", "count"},
	{"core.observe_busy_s", "s"},
	{"core.observe_ns_per_record", "ns"},
	{"core.aggregate_s", "s"},
	{"vscsim.run_busy_s", "s"},
	{"vscsim.guest_ops", "count"},
	{"fleet.push_phase_s", "s"},
	{"fleet.agent_side_s", "s"},
	{"fleet.rtt_busy_s", "s"},
	{"fleet.region_ingest_busy_s", "s"},
	{"fleet.push_p99_ms", "ms"},
	{"fleet.encode_ns_per_frame", "ns"},
	{"fleet.encode_allocs_per_frame", "count"},
	{"fleet.decode_ns_per_frame", "ns"},
	{"fleet.decode_allocs_per_frame", "count"},
	{"fleet.ingest_ns_per_frame", "ns"},
	{"fleet.wire_bytes_per_push", "B"},
	{"fleet.delta_push_ratio", "ratio"},
	{"fleet.resyncs", "count"},
	{"fleet.push_errors", "count"},
	{"fleet.retries", "count"},
	{"fleet.log_append_bytes", "B"},
	{"fleet.log_fsyncs", "count"},
	{"fleet.reexport_busy_s", "s"},
	{"fleet.reexport_bytes", "B"},
	{"fleet.global_ingest_busy_s", "s"},
	{"fleet.merge_busy_s", "s"},
	{"telemetry.scrape_busy_s", "s"},
	{"telemetry.scrape_bytes", "B"},
	{"fleet.boot_frames", "count"},
	{"fleet.log_bytes", "B"},
	{"fleet.log_decode_ns_per_frame", "ns"},
	{"fleet.boot_apply_s", "s"},
	{"fleet.history_frames_per_query", "count"},
	{"fleet.history_ns_per_frame", "ns"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"ledger.unaccounted_pct", "%"},
	{"ledger.tracing_overhead_pct", "%"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, size sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: replay-msr, fleet-churn or fleet-history")
	seed := fs.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 traces the second half of the timed phase and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "e2ebench", "work"), "directory for generated inputs, segment logs and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (replay-msr|fleet-churn|fleet-history), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(sp, *seed, size, *seconds, *traceFlag == 1, *workdir, stdout)
	if res == nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", sp.name, err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: check failed: %v\n", sp.name, err)
		return 1
	}
	return 0
}

// runWorkload sets the workload up several times, runs the timed phase,
// checks the outputs and assembles the result. A nil result means the run
// could not produce one; a non-nil error with a result means a
// correctness check failed.
func runWorkload(sp spec, seed int64, size sizes, seconds float64, traced bool, workdir string, out io.Writer) (*result, error) {
	if err := os.RemoveAll(workdir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	fp := fingerprint(sp.name, seed)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(out, "# workload %s: %s\n# fingerprint %s\n", sp.name, sp.why, fpLine)

	var w workload
	var setups, setupSteals []float64
	for i := 0; i < size.setups; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(workdir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		steal := markSteal()
		t0 := time.Now()
		var err error
		w, err = sp.build(env{seed: seed, size: size, dir: dir, traced: traced})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSteals = append(setupSteals, steal.pct())
	}
	var quietSetups []float64
	for i, keep := range quieter(setupSteals) {
		if keep {
			quietSetups = append(quietSetups, setups[i])
		}
	}
	defer w.close()

	// A traced run measures its first half untraced and its second half
	// traced, so the tracing overhead is measured in the same run.
	untracedSecs := seconds
	if traced {
		untracedSecs = seconds / 2
	}
	p, _, stepErr := runPhase(w, nil, untracedSecs)
	var tp *phase
	var tr *tracer
	var root int32
	if stepErr == nil && traced {
		tr = newTracer()
		tp, root, stepErr = runPhase(w, tr, seconds/2)
	}
	checkErr := stepErr
	if checkErr == nil {
		checkErr = w.check()
	}

	res := &result{Correct: checkErr == nil, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	if tp != nil {
		res.Attempted += tp.attempted
		res.Failed += tp.failed
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	q := p.quiet()
	e2e := map[string]float64{
		"setup_s":          median(quietSetups),
		"throughput_per_s": median(q.rates),
		"latency_p50_ms":   quantile(q.latency, 0.5),
		"latency_p90_ms":   quantile(q.latency, 0.9),
		"freshness_p50_ms": median(q.fresh),
		"heap_peak_mb":     median(q.heapPeaks),
	}
	fmt.Fprintf(out, "# %s: %d set-ups, timed phase %.2fs, %d steps (%d in the quieter half), cpu steal %.1f%%\n",
		sp.name, len(setups), p.wall.Seconds(), len(p.steps), len(q.heapPeaks), p.stealPct)
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"throughput_per_s", p.rates}, {"latency_ms", p.latency}, {"freshness_ms", p.fresh}, {"heap_peak_mb", p.heapPeaks}} {
		fmt.Fprintf(out, "# samples (all steps) %-16s n=%-5d min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g\n", d.name, len(d.xs),
			quantile(d.xs, 0), quantile(d.xs, 0.25), quantile(d.xs, 0.5), quantile(d.xs, 0.75), quantile(d.xs, 1))
	}
	named := append([]metric{{Name: "setup_s", Value: e2e["setup_s"], Unit: "s"}}, w.named(q)...)
	named = append(named,
		metric{Name: "heap_peak_mb", Value: e2e["heap_peak_mb"], Unit: "MiB"},
		metric{Name: "error_ratio", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"})
	for _, m := range named {
		fmt.Fprintf(out, "# metric %-22s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}

	if !traced {
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{Value: e2e[e.name], Unit: e.unit}
		}
		return res, checkErr
	}
	if tp == nil {
		return res, checkErr
	}
	layers := map[string]float64{}
	if err := w.layers(tr, tp, layers); err != nil {
		return nil, fmt.Errorf("per-layer: %w", err)
	}
	if tp.ops > 0 {
		layers["go.alloc_bytes_per_op"] = float64(tp.gc.allocBytes) / float64(tp.ops)
	}
	layers["go.gc_cycles"] = float64(tp.gc.cycles)
	layers["go.gc_pause_ms"] = ms(tp.gc.pause)
	rows, wall := tr.ledger(root)
	for _, r := range rows {
		if r.Layer == "unaccounted" {
			layers["ledger.unaccounted_pct"] = 100 * r.Self.Seconds() / wall.Seconds()
		}
	}
	tracedRate := median(tp.quiet().rates)
	if base := median(q.rates); base > 0 {
		layers["ledger.tracing_overhead_pct"] = 100 * (base - tracedRate) / base
	}
	writeLedger(out, sp.name, rows, wall)
	fmt.Fprintf(out, "# traced half: throughput %.4g op/s vs untraced %.4g op/s (quieter halves)\n", tracedRate, median(q.rates))
	for _, l := range perLayer {
		v := layers[l.name]
		fmt.Fprintf(out, "# layer %-32s %16.4f %s\n", l.name, v, l.unit)
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
	}
	tracePath := filepath.Join(filepath.Dir(workdir), fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed))
	if err := tr.writeChromeTrace(tracePath, fp); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	fmt.Fprintf(out, "# chrome trace: %s\n", tracePath)
	return res, checkErr
}

// runPhase runs closed-loop steps until the phase has lasted seconds.
func runPhase(w workload, tr *tracer, seconds float64) (*phase, int32, error) {
	p := &phase{}
	w.begin(p)
	runtime.GC()
	g0 := markGC()
	heap := startHeapSampler()
	root := tr.start("timed", 0, noSpan, 0)
	phaseSteal := markSteal()
	start := time.Now()
	var err error
	for req := int64(0); ; req++ {
		// Each step starts from a collected heap, so its heap peak and
		// its GC work do not depend on garbage the previous step left.
		gc := tr.start("bench.gc", 0, root, req)
		runtime.GC()
		heap.takeStep()
		tr.finish(gc)
		steal := markSteal()
		err = w.step(tr, root, req)
		p.heapPeaks = append(p.heapPeaks, heap.takeStep())
		p.steps = append(p.steps, stepMark{
			rates: len(p.rates), latency: len(p.latency), fresh: len(p.fresh),
			stealPct: steal.pct(),
		})
		if err != nil {
			break
		}
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	p.wall = time.Since(start)
	tr.finish(root)
	p.stealPct = phaseSteal.pct()
	heap.finish()
	p.gc = g0.until(markGC())
	return p, root, err
}

// fingerprint records the machine and inputs a result was measured on.
func fingerprint(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errCheck marks a failed correctness check.
var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// Command benchfastpath measures the suite's performance-critical paths and
// maintains their committed before/after records:
//
//   - default: the observation fast path (BENCH_fastpath.json) — the striped
//     histogram + bin LUT + batched observer work. Table2StatsOn/Off and
//     MultiVMParallel at the root, Insert/InsertParallel in
//     internal/histogram (at -cpu 1,4), FleetMerge in internal/fleet, and
//     the 1M-record trace-replay engine (legacy vs streaming vs parallel,
//     the streaming ones at -cpu 1,4) in internal/trace.
//   - -fleet: the fleet tier (BENCH_fleet.json) — sharded ingest+scrape at
//     256/1024 simulated hosts against the monolithic single-mutex
//     configuration, full vs delta wire bytes per push interval, cached
//     vs uncached cluster merges, segment-log boot replay at 1024 hosts,
//     whole-fleet history window queries, simulated-datacenter ingest
//     (256 vscsim hosts' full state through the wire codec per op), and
//     the 10240-host federation tree vs flat fan-in (global-tier wire
//     bytes and churn-interval cost, tree re-export vs per-host push).
//
// It shells out to `go test -bench`, takes the minimum over -count runs
// (min-of-N discards scheduler noise; the floor is the honest cost), and
// prints a table. Secondary metrics a benchmark reports (wire_bytes/op)
// are captured alongside ns/op.
//
//	go run ./cmd/benchfastpath                         # measure and print
//	go run ./cmd/benchfastpath -fleet -update          # refresh BENCH_fleet.json
//	go run ./cmd/benchfastpath -check                  # CI regression fence
//	go run ./cmd/benchfastpath -check -fleet           # CI fence, fleet ingest
//
// -check re-measures the fence benchmarks only (BenchmarkTable2StatsOn
// and BenchmarkTraceReplay1M, or BenchmarkFleetIngest1024,
// BenchmarkFleetReplay1024 and BenchmarkFleetTreeIngest10k with -fleet)
// and fails (exit 1) if any regressed more than -tolerance percent over
// the entry named by -against, so CI catches regressions without
// re-running the full suite. An absolute fence only compares numbers from
// the same kind of machine: when the entry's fingerprint (CPU count,
// GOMAXPROCS, CPU model, Go version) differs from this one, it prints SKIP
// with both fingerprints instead. Fences look results up by the bare
// benchmark name, so the "-N" suffix go test adds when GOMAXPROCS > 1
// does not hide them. Relative fences measure both sides fresh in the
// same session so machine speed cancels out, and always run: streaming
// trace replay must stay at or below half the legacy materialize-and-sort
// cost (maxPct -50, i.e. the >=2x speedup claim), the one-pass MSR CSV
// parser at or below 0.8x the field-splitting reference (maxPct -20), and
// with -fleet the traced-ingest variant (BenchmarkFleetIngest1024Traced)
// must cost no more than 5% over the untraced fence.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchFile is the on-disk shape of BENCH_fastpath.json.
type benchFile struct {
	Note    string       `json:"note"`
	Entries []benchEntry `json:"entries"`
}

// benchEntry is one labelled measurement set (e.g. "baseline", "current").
type benchEntry struct {
	Label      string             `json:"label"`
	Date       string             `json:"date,omitempty"`
	GoVersion  string             `json:"go,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	CPUModel   string             `json:"cpu_model,omitempty"`
	Count      int                `json:"count"`
	NsPerOp    map[string]float64 `json:"ns_per_op"`
	// Metrics holds any secondary per-op metrics the benchmarks reported,
	// keyed "BenchmarkName:unit/op" (e.g. wire_bytes/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchSpec is one `go test -bench` invocation: package path, -bench regex,
// extra args.
type benchSpec struct {
	pkg   string
	bench string
	extra []string
}

// suite lists the observation fast-path benchmarks.
var suite = []benchSpec{
	{".", "Table2Stats|MultiVMParallel", nil},
	{"./internal/histogram", "^BenchmarkInsert$|^BenchmarkInsertParallel$", []string{"-cpu", "1,4"}},
	{"./internal/fleet", "^BenchmarkFleetMerge$", nil},
	{"./internal/trace", "^BenchmarkTraceReplay(Legacy1M|1M|1MMerged)$", nil},
	{"./internal/trace", "^BenchmarkTraceReplay1MParallel$", []string{"-cpu", "1,4"}},
	{"./internal/trace", "^BenchmarkMSRSource(Reference)?1M$", nil},
}

// fleetSuite lists the fleet-tier benchmarks -fleet runs. The Mono
// configurations reproduce the pre-shard single-mutex aggregator, so one
// entry holds both the "before" and "after" numbers.
var fleetSuite = []benchSpec{
	{"./internal/fleet", "^BenchmarkFleetIngestScrape(Mono|Sharded)(256|1024)$|^BenchmarkFleetIngest1024(Traced)?$", nil},
	{"./internal/fleet", "^BenchmarkFleetWireBytes(Full|Delta)$", nil},
	{"./internal/fleet", "^BenchmarkFleetMerge(Cached|Uncached)$", nil},
	{"./internal/fleet", "^BenchmarkFleetReplay1024$|^BenchmarkFleetHistoryQuery$", nil},
	{"./internal/vscsim", "^BenchmarkSimPushAll256$", nil},
	{"./internal/vscsim", "^BenchmarkFleet(Tree|Flat)Ingest10k$", nil},
}

func main() {
	var (
		file      = flag.String("file", "", "benchmark record to read/update (default BENCH_fastpath.json, or BENCH_fleet.json with -fleet)")
		label     = flag.String("label", "current", "entry label to record under with -update")
		update    = flag.Bool("update", false, "record the measurements into -file (replaces an entry with the same label)")
		count     = flag.Int("count", 5, "runs per benchmark; the minimum is kept")
		benchtime = flag.String("benchtime", "", "per-run -benchtime (default: go test's 1s)")
		fleet     = flag.Bool("fleet", false, "run the fleet-tier suite instead of the fast-path suite")
		check     = flag.Bool("check", false, "regression fence: re-measure the fence benchmark and compare against -against")
		against   = flag.String("against", "baseline", "entry label -check compares against")
		tolerance = flag.Float64("tolerance", 25, "percent regression -check tolerates")
	)
	flag.Parse()

	// Two fast-path fences: the observation hot path, and the streaming
	// trace-replay engine (absolute, against the recorded entry). Plus two
	// relative fences, both sides measured fresh so machine speed cancels
	// out: streaming replay must stay at or below half the legacy
	// materialize-and-sort cost — a negative maxPct, meaning the claimed
	// >=2x single-core speedup is re-proven on every -check — and the
	// one-pass MSR CSV parser at or below 0.8x the field-splitting
	// reference it replaced.
	benches := suite
	fences := []fence{
		{"BenchmarkTable2StatsOn", "."},
		{"BenchmarkTraceReplay1M", "./internal/trace"},
	}
	relFences := []relFence{{
		bench:   "BenchmarkTraceReplay1M",
		against: "BenchmarkTraceReplayLegacy1M",
		pkg:     "./internal/trace",
		maxPct:  -50,
	}, {
		bench:   "BenchmarkMSRSource1M",
		against: "BenchmarkMSRSourceReference1M",
		pkg:     "./internal/trace",
		maxPct:  -20,
	}}
	if *fleet {
		// Three fleet fences: the ingest fast path, the boot replay the
		// segment log added — a slow restart is a regression too — and the
		// 10k-host federation tree's churn interval. Plus one relative
		// fence: traced ingest must stay within 5% of untraced, both
		// measured fresh in this session.
		benches = fleetSuite
		fences = []fence{
			{"BenchmarkFleetIngest1024", "./internal/fleet"},
			{"BenchmarkFleetReplay1024", "./internal/fleet"},
			{"BenchmarkFleetTreeIngest10k", "./internal/vscsim"},
		}
		relFences = []relFence{{
			bench:   "BenchmarkFleetIngest1024Traced",
			against: "BenchmarkFleetIngest1024",
			pkg:     "./internal/fleet",
			maxPct:  5,
		}}
	}
	if *file == "" {
		*file = "BENCH_fastpath.json"
		if *fleet {
			*file = "BENCH_fleet.json"
		}
	}

	if *check {
		os.Exit(runCheck(*file, *against, fences, relFences, *count, *benchtime, *tolerance))
	}

	results := make(map[string]float64)
	for _, s := range benches {
		if err := runBench(s.pkg, s.bench, *count, *benchtime, s.extra, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	printTable(results)

	if !*update {
		return
	}
	ns, metrics := splitResults(results)
	here := hostFingerprint()
	entry := benchEntry{
		Label:      *label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  here.GoVersion,
		GOMAXPROCS: here.GOMAXPROCS,
		NumCPU:     here.NumCPU,
		CPUModel:   here.CPUModel,
		Count:      *count,
		NsPerOp:    ns,
		Metrics:    metrics,
	}
	note := "min-of-N ns/op for the observation fast path; maintained by cmd/benchfastpath"
	if *fleet {
		note = "min-of-N fleet-tier numbers (Mono = pre-shard single-mutex aggregator; " +
			"measured on 1 CPU, so the sharded win is the merge cache, not parallel ingest); " +
			"maintained by cmd/benchfastpath -fleet"
	}
	if err := record(*file, note, entry); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "recorded %q in %s\n", *label, *file)
}

// runBench executes one `go test -bench` invocation and folds min ns/op per
// benchmark name into results. Names keep go test's -N GOMAXPROCS suffix
// (absent at cpu=1), so "BenchmarkInsertParallel" and
// "BenchmarkInsertParallel-4" record separately.
func runBench(pkg, bench string, count int, benchtime string, extra []string, results map[string]float64) error {
	args := []string{"test", "-run", "^$", "-bench", bench, "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, extra...)
	args = append(args, pkg)
	fmt.Fprintf(os.Stderr, "go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchfastpath: %s: %v\n%s", pkg, err, out.String())
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		for key, v := range parseBenchLine(sc.Text()) {
			if prev, seen := results[key]; !seen || v < prev {
				results[key] = v
			}
		}
	}
	return sc.Err()
}

// parseBenchLine extracts every per-op metric from a `go test -bench`
// result line:
//
//	BenchmarkFleetWireBytesFull   1226   970947 ns/op   3599 wire_bytes/op
//
// ns/op is keyed by the bare benchmark name (the historical shape of
// BENCH_fastpath.json); every other unit is keyed "name:unit/op".
func parseBenchLine(line string) map[string]float64 {
	if !strings.HasPrefix(line, "Benchmark") {
		return nil
	}
	f := strings.Fields(line)
	var out map[string]float64
	for i := 2; i < len(f); i++ {
		if !strings.HasSuffix(f[i], "/op") {
			continue
		}
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			continue
		}
		key := f[0]
		if f[i] != "ns/op" {
			key = f[0] + ":" + f[i]
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[key] = v
	}
	return out
}

// splitResults separates bare-name ns/op entries from "name:unit/op"
// secondary metrics.
func splitResults(results map[string]float64) (ns, metrics map[string]float64) {
	ns = make(map[string]float64)
	for k, v := range results {
		if strings.Contains(k, ":") {
			if metrics == nil {
				metrics = make(map[string]float64)
			}
			metrics[k] = v
		} else {
			ns[k] = v
		}
	}
	return ns, metrics
}

func printTable(results map[string]float64) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	// Stable order: suite order is lost in the map, lexical is fine here.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		unit := "ns/op"
		name := n
		if i := strings.IndexByte(n, ':'); i >= 0 {
			name, unit = n[:i], n[i+1:]
		}
		fmt.Printf("%-40s %12.2f %s (min)\n", name, results[n], unit)
	}
}

// record loads the JSON file (if any), replaces or appends the entry, and
// writes it back.
func record(path, note string, entry benchEntry) error {
	var f benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("benchfastpath: %s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if f.Note == "" {
		f.Note = note
	}
	replaced := false
	for i := range f.Entries {
		if f.Entries[i].Label == entry.Label {
			f.Entries[i] = entry
			replaced = true
		}
	}
	if !replaced {
		f.Entries = append(f.Entries, entry)
	}
	raw, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fence is one absolute regression fence: a benchmark name and the
// package it lives in. Fences span packages (the federation tree bench
// sits in internal/vscsim, the ingest fences in internal/fleet), so
// runCheck groups them by package and runs one `go test -bench` each.
type fence struct {
	name, pkg string
}

// relFence is a same-session comparison: bench must run within maxPct of
// against, both measured fresh in this runCheck — no recorded entry, so
// machine-speed differences cancel out: an overhead bound (traced ingest)
// or a speedup claim (a negative maxPct). Both benchmarks must live in pkg.
type relFence struct {
	bench, against string
	pkg            string
	maxPct         float64
}

// fingerprint identifies the kind of machine a measurement came from.
// Absolute nanoseconds compare only between equal fingerprints.
type fingerprint struct {
	NumCPU     int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d CPU, GOMAXPROCS %d, %q, %s", f.NumCPU, f.GOMAXPROCS, f.CPUModel, f.GoVersion)
}

func (e *benchEntry) fingerprint() fingerprint {
	return fingerprint{e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.GoVersion}
}

// hostFingerprint describes this process's machine. The benchmarks run in
// `go test` children that inherit its CPU set and GOMAXPROCS environment.
func hostFingerprint() fingerprint {
	return fingerprint{runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version()}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// there is none.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// bareName strips the "-N" suffix go test appends to a benchmark name when
// it runs at GOMAXPROCS N > 1.
func bareName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// recordedNs returns the entry's ns/op for the bare benchmark name, as go
// test printed it at the entry's GOMAXPROCS.
func (e *benchEntry) recordedNs(bare string) (float64, bool) {
	name := bare
	if e.GOMAXPROCS > 1 {
		name += "-" + strconv.Itoa(e.GOMAXPROCS)
	}
	v, ok := e.NsPerOp[name]
	return v, ok
}

// runCheck is the CI fence: measure the fence benchmarks fresh (one
// `go test -bench` run per package), compare each against the recorded
// entry (and each relative fence against its in-session reference), and
// report pass/fail for the set.
func runCheck(path, against string, fences []fence, relFences []relFence, count int, benchtime string, tolerance float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfastpath: %v\n", err)
		return 1
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchfastpath: %s: %v\n", path, err)
		return 1
	}
	var entry *benchEntry
	for i := range f.Entries {
		if f.Entries[i].Label == against {
			entry = &f.Entries[i]
		}
	}
	if entry == nil {
		fmt.Fprintf(os.Stderr, "benchfastpath: no entry %q in %s\n", against, path)
		return 1
	}
	// One `go test -bench` per package, covering that package's fences
	// and relative-fence benchmarks together.
	perPkg := make(map[string][]string)
	pkgs := []string{}
	add := func(pkg, bench string) {
		if _, seen := perPkg[pkg]; !seen {
			pkgs = append(pkgs, pkg)
		}
		for _, have := range perPkg[pkg] {
			if have == bench {
				return
			}
		}
		perPkg[pkg] = append(perPkg[pkg], bench)
	}
	for _, fc := range fences {
		add(fc.pkg, fc.name)
	}
	for _, r := range relFences {
		add(r.pkg, r.bench)
		add(r.pkg, r.against)
	}
	results := make(map[string]float64)
	for _, pkg := range pkgs {
		if err := runBench(pkg, "^("+strings.Join(perPkg[pkg], "|")+")$", count, benchtime, nil, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	failed, err := evalFences(os.Stdout, path, entry, hostFingerprint(), results, fences, relFences, tolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	fmt.Println("OK")
	return 0
}

// evalFences judges fresh results (keyed as go test printed them) against
// the recorded entry and the in-session references, writing one line per
// fence. It returns how many fences failed; an error means a fence had
// nothing to compare.
func evalFences(w io.Writer, path string, entry *benchEntry, here fingerprint, results map[string]float64,
	fences []fence, relFences []relFence, tolerance float64) (int, error) {
	bare := make(map[string]float64, len(results))
	for k, v := range results {
		bare[bareName(k)] = v
	}
	failed := 0
	for _, fc := range fences {
		short := strings.TrimPrefix(fc.name, "Benchmark")
		got, ok := bare[fc.name]
		if !ok {
			return failed, fmt.Errorf("benchfastpath: %s produced no result", fc.name)
		}
		if there := entry.fingerprint(); there != here {
			fmt.Fprintf(w, "SKIP: %s: %.2f ns/op here (%s); %s %q was recorded on %s\n",
				short, got, here, path, entry.Label, there)
			continue
		}
		ref, ok := entry.recordedNs(fc.name)
		if !ok || ref == 0 {
			return failed, fmt.Errorf("benchfastpath: no %s under entry %q in %s", fc.name, entry.Label, path)
		}
		limit := ref * (1 + tolerance/100)
		fmt.Fprintf(w, "%s: %.2f ns/op, %s %q: %.2f ns/op, limit %+.0f%%: %.2f ns/op\n",
			short, got, path, entry.Label, ref, tolerance, limit)
		if got > limit {
			fmt.Fprintf(w, "FAIL: %s regressed %.1f%% over %q\n", short, (got/ref-1)*100, entry.Label)
			failed++
		}
	}
	for _, r := range relFences {
		got, ok := bare[r.bench]
		base, okBase := bare[r.against]
		if !ok || !okBase {
			return failed, fmt.Errorf("benchfastpath: relative fence %s vs %s missing a result", r.bench, r.against)
		}
		short, shortAgainst := strings.TrimPrefix(r.bench, "Benchmark"), strings.TrimPrefix(r.against, "Benchmark")
		limit := base * (1 + r.maxPct/100)
		fmt.Fprintf(w, "%s: %.2f ns/op, in-session %s: %.2f ns/op, limit %+.0f%%: %.2f ns/op\n",
			short, got, shortAgainst, base, r.maxPct, limit)
		if got > limit {
			fmt.Fprintf(w, "FAIL: %s costs %.1f%% over %s\n", short, (got/base-1)*100, shortAgainst)
			failed++
		}
	}
	return failed, nil
}

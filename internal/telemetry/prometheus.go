package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
)

// Exporter serves a registry in the Prometheus text exposition format
// (version 0.0.4), hand-rolled on the standard library. One scrape walks
// Registry.List() — sorted by (vm, disk), so output is diffable — and
// emits, per virtual disk:
//
//   - command/byte/error counters and the enabled gauge,
//   - the six paper histograms as cumulative Prometheus histograms with a
//     class="all|reads|writes" label, the paper's irregular bin edges
//     reused verbatim as `le` bounds (including the negative seek bins),
//   - the collector's self-telemetry: observation/contention/drop
//     counters, the sampled ns/observe cost histogram and the snapshot
//     staleness gauge — Table 2 as a live metric,
//   - optionally (WithDiskStats) the vSCSI layer's issued/completed/
//     errored counters and the in-flight gauge,
//
// and after them the families of every MetricsWriter attached with With,
// in the order they were attached.
//
// Counters reset when a collector is Reset; Prometheus treats that as an
// ordinary counter reset. All reads go through the concurrency-safe
// snapshot surfaces, so scraping while simulations issue commands is safe.
type Exporter struct {
	reg     *core.Registry
	disks   DiskStatsSource
	writers []MetricsWriter
	scrapes atomic.Int64
	// lastScrapeNs records the duration of the most recent scrape.
	lastScrapeNs atomic.Int64
	// nowNanos is the wall clock, injectable for tests.
	nowNanos func() int64
}

// MetricsWriter is a subsystem that exports its own metric families —
// the fleet aggregator and re-exporter, the pipeline tracker, the
// datacenter simulator. WriteMetrics runs once per scrape.
type MetricsWriter interface {
	WriteMetrics(p *PromWriter)
}

// NewExporter returns an exporter over the registry.
func NewExporter(reg *core.Registry) *Exporter {
	return &Exporter{reg: reg, nowNanos: func() int64 { return time.Now().UnixNano() }}
}

// WithDiskStats attaches a source of vSCSI-layer disk counters (e.g. a
// hypervisor.Host or ParallelSim) and returns the exporter.
func (e *Exporter) WithDiskStats(src DiskStatsSource) *Exporter {
	e.disks = src
	return e
}

// With attaches a subsystem's metric families and returns the exporter.
// Scrapes emit them after the per-disk families, in attach order. Attach
// everything before serving: With is not safe against concurrent scrapes.
func (e *Exporter) With(w MetricsWriter) *Exporter {
	e.writers = append(e.writers, w)
	return e
}

// WithFleet is With under its older name, kept because the end-to-end
// benchmark harness (e2ebench), a separate module frozen with its
// recorded results, attaches its aggregator through it.
func (e *Exporter) WithFleet(w MetricsWriter) *Exporter { return e.With(w) }

// ServeHTTP implements GET /metrics.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet, http.MethodHead)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	if err := e.Write(w); err != nil {
		// Headers are gone; nothing useful left to do but log via the
		// error return of the underlying writer (client went away).
		return
	}
}

// scrapeRow is one virtual disk's gathered state.
type scrapeRow struct {
	vm, disk  string
	enabled   bool
	snap      *core.Snapshot
	self      *core.SelfSnapshot
	hasDisk   bool
	issued    uint64
	completed uint64
	errored   uint64
	inflight  int64
}

// Write emits one complete exposition to w.
func (e *Exporter) Write(w io.Writer) error {
	t0 := time.Now()
	e.scrapes.Add(1)

	var rows []scrapeRow
	for _, c := range e.reg.List() {
		row := scrapeRow{vm: c.VM(), disk: c.Disk(), enabled: c.Enabled()}
		// Order matters: read the self stats before Snapshot so the
		// staleness gauge reflects the previous observer, not this scrape.
		row.self = c.SelfStats()
		row.snap = c.Snapshot()
		if e.disks != nil {
			row.issued, row.completed, row.errored, row.inflight, row.hasDisk =
				e.disks.DiskCounters(c.VM(), c.Disk())
		}
		rows = append(rows, row)
	}

	p := &PromWriter{w: bufio.NewWriter(w)}
	e.writeCounters(p, rows)
	e.writeDiskCounters(p, rows)
	snaps := make([]*core.Snapshot, 0, len(rows))
	for _, row := range rows {
		if row.snap != nil {
			snaps = append(snaps, row.snap)
		}
	}
	p.SnapshotHistograms("vscsistats", "", snaps, func(s *core.Snapshot) string { return vmDiskLabels(s.VM, s.Disk) })
	e.writeSelf(p, rows)
	for _, mw := range e.writers {
		mw.WriteMetrics(p)
	}

	p.Metric("vscsistats_collectors", "gauge", "Collectors registered in the control plane.", "", strconv.Itoa(len(rows)))
	p.Metric("vscsistats_scrapes_total", "counter", "Scrapes served by this exporter.", "", strconv.FormatInt(e.scrapes.Load(), 10))
	p.Metric("vscsistats_last_scrape_duration_seconds", "gauge", "Wall-clock duration of the previous scrape.", "",
		FormatFloat(float64(e.lastScrapeNs.Load())/1e9))

	err := p.flush()
	e.lastScrapeNs.Store(time.Since(t0).Nanoseconds())
	return err
}

func rowLabels(r scrapeRow) string { return vmDiskLabels(r.vm, r.disk) }

// snap returns the row's snapshot counter, 0 when it has no snapshot.
func snap(get func(*core.Snapshot) int64) func(scrapeRow) int64 {
	return func(r scrapeRow) int64 {
		if r.snap == nil {
			return 0
		}
		return get(r.snap)
	}
}

func (e *Exporter) writeCounters(p *PromWriter, rows []scrapeRow) {
	WriteSeries(p, rows, rowLabels,
		Counter("vscsistats_commands_total", "Block I/O commands observed by the collector.", snap(func(s *core.Snapshot) int64 { return s.Commands })),
		Counter("vscsistats_reads_total", "Read commands observed.", snap(func(s *core.Snapshot) int64 { return s.NumReads })),
		Counter("vscsistats_writes_total", "Write commands observed.", snap(func(s *core.Snapshot) int64 { return s.NumWrites })),
		Counter("vscsistats_read_bytes_total", "Bytes read by observed commands.", snap(func(s *core.Snapshot) int64 { return s.ReadBytes })),
		Counter("vscsistats_write_bytes_total", "Bytes written by observed commands.", snap(func(s *core.Snapshot) int64 { return s.WriteBytes })),
		Counter("vscsistats_errors_total", "Commands completed with a status other than GOOD.", snap(func(s *core.Snapshot) int64 { return s.Errors })),
		Gauge("vscsistats_collector_enabled", "1 when the characterization service is recording this disk.", func(r scrapeRow) int64 { return boolInt(r.enabled) }),
	)
}

func (e *Exporter) writeDiskCounters(p *PromWriter, rows []scrapeRow) {
	if e.disks == nil {
		return
	}
	var withDisk []scrapeRow
	for _, row := range rows {
		if row.hasDisk {
			withDisk = append(withDisk, row)
		}
	}
	WriteSeries(p, withDisk, rowLabels,
		Counter("vscsistats_disk_issued_total", "Commands issued at the vSCSI layer (control commands included).", func(r scrapeRow) int64 { return int64(r.issued) }),
		Counter("vscsistats_disk_completed_total", "Commands completed at the vSCSI layer.", func(r scrapeRow) int64 { return int64(r.completed) }),
		Counter("vscsistats_disk_errored_total", "vSCSI completions with a status other than GOOD.", func(r scrapeRow) int64 { return int64(r.errored) }),
		Gauge("vscsistats_disk_inflight", "Commands issued but not yet completed at the vSCSI layer.", func(r scrapeRow) int64 { return r.inflight }),
	)
}

func (e *Exporter) writeSelf(p *PromWriter, rows []scrapeRow) {
	WriteSeries(p, rows, rowLabels,
		Counter("vscsistats_self_observations_total", "Enabled fast-path calls (issue + complete) into the collector.", func(r scrapeRow) int64 { return r.self.Observations }),
		Counter("vscsistats_self_samples_total", "Observations that were wall-clock timed (1 in 64).", func(r scrapeRow) int64 { return r.self.Sampled }),
		Counter("vscsistats_self_contended_total", "Fast-path stream-mutex collisions between issuing goroutines.", func(r scrapeRow) int64 { return r.self.Contended }),
		Counter("vscsistats_self_dropped_total", "Observations lost to the Enable race window.", func(r scrapeRow) int64 { return r.self.Dropped }),
		Counter("vscsistats_self_snapshots_total", "Snapshot() calls that returned data.", func(r scrapeRow) int64 { return r.self.Snapshots }),
	)

	p.Family("vscsistats_self_snapshot_staleness_seconds", "gauge",
		"Age of the most recent snapshot of this collector (absent until one is taken).")
	now := e.nowNanos()
	for _, row := range rows {
		last := row.self.LastSnapshotUnixNano
		if last == 0 {
			continue
		}
		age := float64(now-last) / 1e9
		if age < 0 {
			age = 0
		}
		p.Sample("vscsistats_self_snapshot_staleness_seconds", rowLabels(row), FormatFloat(age))
	}

	p.Family("vscsistats_self_observe_nanoseconds", "histogram",
		"Sampled wall-clock cost of one fast-path observation (the live Table 2 CPU row).")
	for _, row := range rows {
		p.Histogram("vscsistats_self_observe_nanoseconds", rowLabels(row), row.self.ObserveNs)
	}
}

// PromWriter renders Prometheus text-format families, capturing the
// first write error. Labels are pre-rendered `k="v",...` lists; build
// them with Label.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the HELP and TYPE header of one metric family.
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line (labels empty for an unlabelled sample).
func (p *PromWriter) Sample(name, labels, value string) {
	if labels == "" {
		p.printf("%s %s\n", name, value)
		return
	}
	p.printf("%s{%s} %s\n", name, labels, value)
}

// Metric emits a family holding exactly one sample.
func (p *PromWriter) Metric(name, typ, help, labels, value string) {
	p.Family(name, typ, help)
	p.Sample(name, labels, value)
}

// Series is one metric family rendered over rows of T, one sample per
// row.
type Series[T any] struct {
	Name, Type, Help string
	Value            func(T) int64
}

// Counter builds a counter Series.
func Counter[T any](name, help string, value func(T) int64) Series[T] {
	return Series[T]{name, "counter", help, value}
}

// Gauge builds a gauge Series.
func Gauge[T any](name, help string, value func(T) int64) Series[T] {
	return Series[T]{name, "gauge", help, value}
}

// WriteSeries emits each family over rows, labelling row r with label(r).
func WriteSeries[T any](p *PromWriter, rows []T, label func(T) string, fams ...Series[T]) {
	for _, f := range fams {
		p.Family(f.Name, f.Type, f.Help)
		for _, r := range rows {
			p.Sample(f.Name, label(r), strconv.FormatInt(f.Value(r), 10))
		}
	}
}

// Histogram emits the cumulative bucket/sum/count triple of one snapshot.
// The +Inf bucket and _count use the running bucket sum rather than the
// snapshot's Total so the series is internally consistent even when
// concurrent inserts tear the copy (Prometheus requires bucket <= bucket
// and +Inf == count). The striped histogram's Snapshot derives Total from
// the merged per-bin counts, so today cum always equals h.Total; keeping
// the running sum makes this emitter safe against any snapshot source.
// Per-bin counts are merged from per-stripe atomics, each of which only
// grows, so successive scrapes of the same stream stay monotone per bucket
// — the property Prometheus rate() and histogram_quantile() rely on.
func (p *PromWriter) Histogram(name, baseLabels string, h *histogram.Snapshot) {
	sep := ","
	if baseLabels == "" {
		sep = ""
	}
	var cum int64
	for i, edge := range h.Edges {
		cum += h.Counts[i]
		p.Sample(name+"_bucket", baseLabels+sep+`le="`+strconv.FormatInt(edge, 10)+`"`, strconv.FormatInt(cum, 10))
	}
	cum += h.Counts[len(h.Edges)]
	p.Sample(name+"_bucket", baseLabels+sep+`le="+Inf"`, strconv.FormatInt(cum, 10))
	p.Sample(name+"_sum", baseLabels, strconv.FormatInt(h.Sum, 10))
	p.Sample(name+"_count", baseLabels, strconv.FormatInt(cum, 10))
}

// workloadFamilies maps the paper's metric families to Prometheus name
// suffixes.
var workloadFamilies = []struct {
	metric core.Metric
	suffix string
	help   string
	// windowedOnly marks the one family with no read/write breakdown.
	windowedOnly bool
}{
	{core.MetricIOLength, "_io_length_bytes", "I/O length histogram (paper Figures 2-5 (a)/(b)).", false},
	{core.MetricSeekDistance, "_seek_distance_sectors", "Signed seek distance between consecutive commands, in 512-byte sectors.", false},
	{core.MetricSeekWindowed, "_seek_distance_windowed_sectors", "Minimum-magnitude seek distance to any of the last N=16 commands.", true},
	{core.MetricOutstanding, "_outstanding_ios", "Outstanding I/Os observed at command arrival.", false},
	{core.MetricLatency, "_io_latency_microseconds", "Device latency from issue to completion, in microseconds.", false},
	{core.MetricInterarrival, "_io_interarrival_microseconds", "Inter-arrival time between consecutive commands, in microseconds.", false},
}

// SnapshotHistograms emits the six paper histogram families, named
// prefix+suffix (e.g. vscsistats_io_length_bytes) with helpPrefix before
// the shared help text, as cumulative histograms per snapshot and class.
// labels gives each snapshot's base labels; the class label follows them.
func (p *PromWriter) SnapshotHistograms(prefix, helpPrefix string, snaps []*core.Snapshot, labels func(*core.Snapshot) string) {
	for _, fam := range workloadFamilies {
		name := prefix + fam.suffix
		p.Family(name, "histogram", helpPrefix+fam.help)
		classes := []core.Class{core.All, core.Reads, core.Writes}
		if fam.windowedOnly {
			classes = classes[:1]
		}
		for _, s := range snaps {
			base := labels(s)
			if base != "" {
				base += ","
			}
			for _, cl := range classes {
				if h := s.Histogram(fam.metric, cl); h != nil {
					p.Histogram(name, base+Label("class", cl.String()), h)
				}
			}
		}
	}
}

func (p *PromWriter) flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// Label renders one name="value" label pair, escaping the value.
func Label(name, value string) string {
	return name + `="` + escapeLabel(value) + `"`
}

func vmDiskLabels(vm, disk string) string {
	return Label("vm", vm) + "," + Label("disk", disk)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// FormatFloat renders a gauge value compactly.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

package fleet

import (
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

// scrapeExporter renders one exposition and parses it with the strict
// parser (HELP/TYPE before samples, no duplicate series, complete
// cumulative histograms).
func scrapeExporter(t *testing.T, exp *telemetry.Exporter) (string, []promtest.Sample) {
	t.Helper()
	var sb strings.Builder
	if err := exp.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), promtest.Parse(t, sb.String())
}

// TestFleetExposition scrapes a real aggregator — one fresh host carrying
// a VM name that needs label escaping, one host stale for 42s — and
// checks every fleet_* family against the aggregator's own views.
func TestFleetExposition(t *testing.T) {
	agg, clk := newTestAggregator(10 * time.Second)
	odd := core.NewCollector(`vm-"odd"`, "scsi0:0")
	odd.Enable()
	feed(odd, 3, 30)
	regA := makeRegistry(1, 1, 1, 25)
	regA.Register(odd)
	if err := agg.Ingest(batchFor(makeRegistry(2, 1, 1, 40), "esx-02", 3), "push"); err != nil {
		t.Fatal(err)
	}
	clk.advance(42 * time.Second)
	for seq := uint64(1); seq <= 7; seq++ {
		if err := agg.Ingest(batchFor(regA, "esx-01", seq), "push"); err != nil {
			t.Fatal(err)
		}
	}
	_, samples := scrapeExporter(t, telemetry.NewExporter(core.NewRegistry()).With(agg))

	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"vscsistats_fleet_hosts", nil, 2},
		{"vscsistats_fleet_hosts_stale", nil, 1},
		{"vscsistats_fleet_host_up", []string{"host", "esx-01"}, 1},
		{"vscsistats_fleet_host_up", []string{"host", "esx-02"}, 0},
		{"vscsistats_fleet_host_age_seconds", []string{"host", "esx-02"}, 42},
		{"vscsistats_fleet_host_snapshots", []string{"host", "esx-01"}, 2},
		{"vscsistats_fleet_host_batches_total", []string{"host", "esx-01"}, 7},
		{"vscsistats_fleet_tier_hosts", []string{"level", "0"}, 2},
		{"vscsistats_fleet_tier_depth", nil, 1},
	} {
		if s := promtest.Find(t, samples, c.name, c.labels...); s.Value != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, s.Value, c.want)
		}
	}

	c := agg.ClusterSnapshot(false)
	for name, want := range map[string]int64{
		"vscsistats_fleet_commands_total":    c.Commands,
		"vscsistats_fleet_reads_total":       c.NumReads,
		"vscsistats_fleet_writes_total":      c.NumWrites,
		"vscsistats_fleet_read_bytes_total":  c.ReadBytes,
		"vscsistats_fleet_write_bytes_total": c.WriteBytes,
		"vscsistats_fleet_errors_total":      c.Errors,
	} {
		if s := promtest.Find(t, samples, name); int64(s.Value) != want {
			t.Errorf("%s = %v, want %d", name, s.Value, want)
		}
	}
	vms := agg.VMSnapshots(false)
	if len(vms) != 2 {
		t.Fatalf("%d fresh VMs, want 2 (the stale host's VM is excluded)", len(vms))
	}
	for _, vs := range vms {
		s := promtest.Find(t, samples, "vscsistats_fleet_vm_commands_total", "vm", vs.VM)
		if int64(s.Value) != vs.Commands {
			t.Errorf("vm_commands{%s} = %v, want %d", vs.VM, s.Value, vs.Commands)
		}
	}

	// The merged histograms carry the cluster totals: _count of the
	// all-class series equals the merged histogram's sample count.
	for name, m := range map[string]core.Metric{
		"vscsistats_fleet_io_length_bytes":                core.MetricIOLength,
		"vscsistats_fleet_seek_distance_sectors":          core.MetricSeekDistance,
		"vscsistats_fleet_seek_distance_windowed_sectors": core.MetricSeekWindowed,
		"vscsistats_fleet_outstanding_ios":                core.MetricOutstanding,
		"vscsistats_fleet_io_latency_microseconds":        core.MetricLatency,
		"vscsistats_fleet_io_interarrival_microseconds":   core.MetricInterarrival,
	} {
		s := promtest.Find(t, samples, name+"_count", "class", "all")
		if h := c.Histogram(m, core.All); int64(s.Value) != h.Total {
			t.Errorf("%s_count{all} = %v, want %d", name, s.Value, h.Total)
		}
	}
}

// TestFleetExpositionEmpty: an aggregator with no host still produces a
// parseable scrape — the per-host, cluster and per-VM families carry
// headers only, and no histogram fragment appears.
func TestFleetExpositionEmpty(t *testing.T) {
	agg, _ := newTestAggregator(10 * time.Second)
	text, samples := scrapeExporter(t, telemetry.NewExporter(core.NewRegistry()).With(agg))
	if s := promtest.Find(t, samples, "vscsistats_fleet_hosts"); s.Value != 0 {
		t.Errorf("fleet_hosts = %v, want 0", s.Value)
	}
	for _, fam := range []string{"vscsistats_fleet_host_up", "vscsistats_fleet_commands_total", "vscsistats_fleet_vm_commands_total"} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s has no header", fam)
		}
	}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "vscsistats_fleet_host_") || strings.HasPrefix(s.Name, "vscsistats_fleet_vm_") ||
			strings.HasPrefix(s.Name, "vscsistats_fleet_commands_total") || strings.Contains(s.Name, "fleet_io_length") {
			t.Errorf("sample %s emitted by an empty aggregator", s.SeriesKey())
		}
	}
}

// TestFleetExpositionAbsent: an aggregator that is not attached to the
// exporter contributes no fleet_* series.
func TestFleetExpositionAbsent(t *testing.T) {
	agg, _ := newTestAggregator(10 * time.Second)
	if err := agg.Ingest(batchFor(makeRegistry(1, 1, 1, 10), "esx-01", 1), "push"); err != nil {
		t.Fatal(err)
	}
	_, samples := scrapeExporter(t, telemetry.NewExporter(core.NewRegistry()))
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "vscsistats_fleet_") {
			t.Errorf("unexpected fleet series %s without an attached aggregator", s.Name)
		}
	}
}

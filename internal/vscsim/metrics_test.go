package vscsim

import (
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

// TestMetricsSimSeries runs the exposition with a real simulator attached
// — advanced deterministically and pushed into an aggregator — through
// the strict parser, and checks every vscsistats_vscsim_* series carries
// the simulator's own stats verbatim.
func TestMetricsSimSeries(t *testing.T) {
	_, srv := newTestAggregator(t)
	inv := NewInventory(Config{Seed: 5, Hosts: 3, VMsPerHost: 2, Intensity: 2})
	sim, err := New(inv, SimConfig{Push: srv.URL + "/fleet/push", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunVirtual(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.NewExporter(core.NewRegistry()).With(sim).Write(&sb); err != nil {
		t.Fatal(err)
	}
	samples := promtest.Parse(t, sb.String())
	st := sim.Stats()
	if st.Ops == 0 || st.Agent.Pushes != 3 {
		t.Fatalf("sim ran %d ops and %d pushes, want ops > 0 and 3 pushes", st.Ops, st.Agent.Pushes)
	}
	for name, want := range map[string]float64{
		"vscsistats_vscsim_hosts":             3,
		"vscsistats_vscsim_vms":               6,
		"vscsistats_vscsim_disks":             float64(st.Disks),
		"vscsistats_vscsim_virtual_seconds":   10,
		"vscsistats_vscsim_wall_seconds":      st.Wall.Seconds(),
		"vscsistats_vscsim_speed":             st.Speed,
		"vscsistats_vscsim_ops_total":         float64(st.Ops),
		"vscsistats_vscsim_bytes_total":       float64(st.Bytes),
		"vscsistats_vscsim_errors_total":      float64(st.Errors),
		"vscsistats_vscsim_throttled_total":   float64(st.Throttled),
		"vscsistats_vscsim_pushes_total":      3,
		"vscsistats_vscsim_push_errors_total": 0,
	} {
		if s := promtest.Find(t, samples, name); s.Value != want {
			t.Errorf("%s = %v, want %v", name, s.Value, want)
		}
	}
}

// TestMetricsSimAbsent: a simulator that is not attached to the exporter
// leaks no vscsim series into the exposition.
func TestMetricsSimAbsent(t *testing.T) {
	if _, err := New(NewInventory(Config{Seed: 5, Hosts: 1, VMsPerHost: 1}), SimConfig{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.NewExporter(core.NewRegistry()).Write(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "vscsim") {
		t.Error("exposition mentions vscsim without a simulator attached")
	}
}

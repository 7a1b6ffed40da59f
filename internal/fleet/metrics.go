package fleet

import (
	"strconv"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
)

// WriteMetrics implements telemetry.MetricsWriter: the vscsistats_fleet_*
// series. Host liveness gauges, per-shard ingest and merge-cache
// counters, per-tier host counts, the segment log's counters (when a log
// is open), merged cluster counters, per-VM command counters, and the six
// paper histograms merged cluster-wide (bin-exact sums of every fresh
// host's bins).
func (g *Aggregator) WriteMetrics(p *telemetry.PromWriter) {
	hosts := g.Hosts()
	var stale int
	for _, h := range hosts {
		if h.Stale {
			stale++
		}
	}
	p.Metric("vscsistats_fleet_hosts", "gauge", "Hosts known to the fleet aggregator.", "", strconv.Itoa(len(hosts)))
	p.Metric("vscsistats_fleet_hosts_stale", "gauge", "Known hosts past the liveness horizon (excluded from merges).", "", strconv.Itoa(stale))
	hostLabel := func(h HostStatus) string { return telemetry.Label("host", h.Host) }
	telemetry.WriteSeries(p, hosts, hostLabel, telemetry.Gauge("vscsistats_fleet_host_up",
		"1 when the host's newest batch is within the liveness horizon.", func(h HostStatus) int64 {
			if h.Stale {
				return 0
			}
			return 1
		}))
	p.Family("vscsistats_fleet_host_age_seconds", "gauge", "Age of the host's newest batch.")
	for _, h := range hosts {
		p.Sample("vscsistats_fleet_host_age_seconds", hostLabel(h), telemetry.FormatFloat(h.AgeSeconds))
	}
	telemetry.WriteSeries(p, hosts, hostLabel,
		telemetry.Gauge("vscsistats_fleet_host_snapshots", "Virtual disks in the host's newest batch.", func(h HostStatus) int64 { return int64(h.Snapshots) }),
		telemetry.Counter("vscsistats_fleet_host_batches_total", "Batches ingested from the host, retries included.", func(h HostStatus) int64 { return h.Batches }))

	telemetry.WriteSeries(p, g.Shards(), func(s ShardStatus) string { return telemetry.Label("shard", strconv.Itoa(s.Shard)) },
		telemetry.Gauge("vscsistats_fleet_shard_hosts", "Hosts routed to the shard.", func(s ShardStatus) int64 { return int64(s.Hosts) }),
		telemetry.Gauge("vscsistats_fleet_shard_hosts_stale", "Shard hosts past the liveness horizon.", func(s ShardStatus) int64 { return int64(s.StaleHosts) }),
		telemetry.Counter("vscsistats_fleet_shard_batches_total", "Batches ingested by the shard.", func(s ShardStatus) int64 { return s.Batches }),
		telemetry.Counter("vscsistats_fleet_shard_deltas_applied_total", "Delta batches applied onto stored state.", func(s ShardStatus) int64 { return s.DeltasApplied }),
		telemetry.Counter("vscsistats_fleet_shard_resyncs_total", "Delta batches refused pending a full-state resync.", func(s ShardStatus) int64 { return s.Resyncs }),
		telemetry.Counter("vscsistats_fleet_shard_merge_cache_hits_total", "Scrapes served from the shard's memoized merge.", func(s ShardStatus) int64 { return s.MergeCacheHits }),
		telemetry.Counter("vscsistats_fleet_shard_merge_cache_misses_total", "Scrapes that re-merged the shard's hosts.", func(s ShardStatus) int64 { return s.MergeCacheMisses }))

	// A flat fleet exposes one level-0 tier; a federated one shows each
	// tier's host and folded-leaf counts, so a region dropping out of the
	// global view is visible as a leaves dip at level 1.
	tiers := g.Tiers()
	telemetry.WriteSeries(p, tiers, func(t TierStatus) string { return telemetry.Label("level", strconv.Itoa(t.Level)) },
		telemetry.Gauge("vscsistats_fleet_tier_hosts", "Hosts reporting at the federation level.", func(t TierStatus) int64 { return int64(t.Hosts) }),
		telemetry.Gauge("vscsistats_fleet_tier_hosts_stale", "Level hosts past the liveness horizon.", func(t TierStatus) int64 { return int64(t.StaleHosts) }),
		telemetry.Gauge("vscsistats_fleet_tier_leaves", "Leaf hosts folded into the level's entries.", func(t TierStatus) int64 { return int64(t.Leaves) }))
	p.Metric("vscsistats_fleet_tier_depth", "gauge", "Federation levels present in the host set.", "", strconv.Itoa(len(tiers)))

	if log := g.LogStats(); log.Enabled {
		for _, m := range []struct {
			name, typ, help string
			value           int64
		}{
			{"vscsistats_fleet_log_segments", "gauge", "Live segment files in the aggregator's durability log.", int64(log.Segments)},
			{"vscsistats_fleet_log_bytes", "gauge", "Bytes held by the segment log.", log.Bytes},
			{"vscsistats_fleet_log_appends_total", "counter", "Frames appended to the segment log.", log.Appends},
			{"vscsistats_fleet_log_append_bytes_total", "counter", "Bytes appended to the segment log.", log.AppendBytes},
			{"vscsistats_fleet_log_append_errors_total", "counter", "Appends absorbed after an encode or I/O failure.", log.AppendErrors},
			{"vscsistats_fleet_log_fsyncs_total", "counter", "Batched fsyncs issued by the segment log.", log.Fsyncs},
			{"vscsistats_fleet_log_rotations_total", "counter", "Segment rotations.", log.Rotations},
			{"vscsistats_fleet_log_compactions_total", "counter", "Shard chains rewritten as one full-frame segment.", log.Compactions},
			{"vscsistats_fleet_log_segments_retired_total", "counter", "Sealed segments dropped by retention.", log.SegmentsRetired},
			{"vscsistats_fleet_log_frames_replayed_total", "counter", "Frames recovered by boot replay.", log.FramesReplayed},
			{"vscsistats_fleet_log_torn_tails_total", "counter", "Crash-torn tail frames truncated away at replay.", log.TornTails},
		} {
			p.Metric(m.name, m.typ, m.help, "", strconv.FormatInt(m.value, 10))
		}
	}

	// The cluster counters and histograms have no sample while no fresh
	// host has reported.
	var cluster []*core.Snapshot
	if c := g.ClusterSnapshot(false); c != nil {
		cluster = append(cluster, c)
	}
	vms := g.VMSnapshots(false)
	noLabels := func(*core.Snapshot) string { return "" }
	telemetry.WriteSeries(p, cluster, noLabels,
		telemetry.Counter("vscsistats_fleet_commands_total", "Commands observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Commands }),
		telemetry.Counter("vscsistats_fleet_reads_total", "Reads observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumReads }),
		telemetry.Counter("vscsistats_fleet_writes_total", "Writes observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumWrites }),
		telemetry.Counter("vscsistats_fleet_read_bytes_total", "Bytes read across all fresh hosts.", func(s *core.Snapshot) int64 { return s.ReadBytes }),
		telemetry.Counter("vscsistats_fleet_write_bytes_total", "Bytes written across all fresh hosts.", func(s *core.Snapshot) int64 { return s.WriteBytes }),
		telemetry.Counter("vscsistats_fleet_errors_total", "Errored commands across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Errors }))
	telemetry.WriteSeries(p, vms, func(s *core.Snapshot) string { return telemetry.Label("vm", s.VM) },
		telemetry.Counter("vscsistats_fleet_vm_commands_total", "Commands per VM merged across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Commands }))
	if cluster != nil {
		p.SnapshotHistograms("vscsistats_fleet", "Cluster-wide merge: ", cluster, noLabels)
	}
}

// WriteMetrics implements telemetry.MetricsWriter: the
// vscsistats_fleet_tier_reexport_* series, the upstream push health of
// this mid-tier aggregator feeding another.
func (r *ReExporter) WriteMetrics(p *telemetry.PromWriter) {
	st := r.Stats()
	label := telemetry.Label("region", st.Region)
	p.Metric("vscsistats_fleet_tier_reexport_level", "gauge", "Federation level the re-exporter stamps on upstream frames.", label, strconv.Itoa(st.Level))
	for _, m := range []struct {
		name, help string
		value      int64
	}{
		{"vscsistats_fleet_tier_reexport_pushes_total", "Re-export frames delivered upstream.", st.Pushes},
		{"vscsistats_fleet_tier_reexport_delta_pushes_total", "Re-export frames delivered as interval deltas.", st.DeltaPushes},
		{"vscsistats_fleet_tier_reexport_heartbeats_total", "Liveness-only duplicate frames sent when nothing changed.", st.Heartbeats},
		{"vscsistats_fleet_tier_reexport_full_pushes_total", "Re-export frames delivered as full state.", st.FullPushes},
		{"vscsistats_fleet_tier_reexport_resyncs_total", "Upstream delta refusals answered with full state.", st.Resyncs},
		{"vscsistats_fleet_tier_reexport_errors_total", "Failed upstream delivery attempts.", st.Errors},
		{"vscsistats_fleet_tier_reexport_sent_bytes_total", "Wire bytes delivered upstream.", st.SentBytes},
	} {
		p.Metric(m.name, "counter", m.help, label, strconv.FormatInt(m.value, 10))
	}
}

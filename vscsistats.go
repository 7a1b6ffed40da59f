// Package vscsistats is a from-scratch reproduction of "Easy and Efficient
// Disk I/O Workload Characterization in VMware ESX Server" (IISWC 2007) —
// the system that shipped as VMware's vscsiStats.
//
// The package is a facade over the implementation packages:
//
//   - a deterministic discrete-event engine (virtual time),
//   - a virtual SCSI device layer with observer hooks,
//   - the online histogram characterization service (the paper's
//     contribution): I/O length, seek distance (plain and windowed),
//     outstanding I/Os, latency and inter-arrival histograms, split by
//     reads/writes, in O(1) time and O(m) space per command,
//   - a vSCSI command tracing framework with offline analysis,
//   - behavioural filesystem models (UFS, ZFS, ext3, NTFS),
//   - workload generators (a Filebench-style model language with the OLTP
//     personality, a DBT-2/TPC-C engine, file-copy pipelines, Iometer),
//   - storage array models (Symmetrix-like, CLARiiON CX3-like), and
//   - an experiment harness regenerating every table and figure in the
//     paper's evaluation.
//
// Quick start:
//
//	eng := vscsistats.NewEngine()
//	host := vscsistats.NewHost(eng)
//	host.AddDatastore("sym", vscsistats.Symmetrix(1))
//	vd, _ := host.CreateVM("vm1").AddDisk(vscsistats.DiskSpec{
//		Name: "scsi0:0", Datastore: "sym", CapacitySectors: 6 << 21,
//	})
//	vd.Collector.Enable()
//	gen := vscsistats.NewIometer(eng, vd.Disk, vscsistats.FourKSeqRead(32))
//	gen.Start()
//	eng.RunUntil(10 * vscsistats.Second)
//	fmt.Println(vd.Collector.Snapshot().Summary())
package vscsistats

import (
	"io"
	"net/http"
	"time"

	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/fs"
	"vscsistats/internal/histogram"
	"vscsistats/internal/httpstats"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/report"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
	"vscsistats/internal/vscsim"
	"vscsistats/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// --- Simulation engine ---

// Time is virtual time in nanoseconds; Engine is the discrete-event
// simulator every scenario runs on.
type (
	Time   = simclock.Time
	Engine = simclock.Engine
)

// Virtual time units.
const (
	Microsecond = simclock.Microsecond
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return simclock.NewEngine() }

// --- The characterization service (the paper's contribution) ---

// Collector is the per-virtual-disk online histogram service; Snapshot is
// an immutable copy of everything it has gathered.
type (
	Collector        = core.Collector
	Snapshot         = core.Snapshot
	Metric           = core.Metric
	Class            = core.Class
	Fingerprint      = core.Fingerprint
	Registry         = core.Registry
	IntervalRecorder = core.IntervalRecorder
)

// Metric and class selectors.
const (
	MetricIOLength     = core.MetricIOLength
	MetricSeekDistance = core.MetricSeekDistance
	MetricSeekWindowed = core.MetricSeekWindowed
	MetricOutstanding  = core.MetricOutstanding
	MetricLatency      = core.MetricLatency
	MetricInterarrival = core.MetricInterarrival

	All    = core.All
	Reads  = core.Reads
	Writes = core.Writes
)

// NewCollector creates a disabled collector for one virtual disk; attach it
// with Disk.AddObserver and toggle it with Enable/Disable.
func NewCollector(vm, disk string) *Collector { return core.NewCollector(vm, disk) }

// NewCollectorWindow sets an explicit windowed-seek look-behind (§3.1's N,
// default 16).
func NewCollectorWindow(vm, disk string, n int) *Collector {
	return core.NewCollectorWindow(vm, disk, n)
}

// NewRegistry creates the host-wide collector registry behind the
// enable/disable command-line utility.
func NewRegistry() *Registry { return core.NewRegistry() }

// NewIntervalRecorder snapshots a collector every interval, producing the
// paper's "histogram over time" series (Figures 4(d), 6(c)).
func NewIntervalRecorder(eng *Engine, col *Collector, interval Time) *IntervalRecorder {
	return core.NewIntervalRecorder(eng, col, interval)
}

// FingerprintOf classifies a snapshot and derives placement recommendations
// (the §7 future-work feature).
func FingerprintOf(s *Snapshot) Fingerprint { return core.FingerprintOf(s) }

// Collector2D is the online seek-distance x latency correlation collector —
// the 2-D extension §3.6 leaves to future work, implemented.
type Collector2D = core.Collector2D

// NewCollector2D creates a disabled 2-D collector; attach it with
// Disk.AddObserver alongside (or instead of) the 1-D Collector.
func NewCollector2D(vm, disk string) *Collector2D { return core.NewCollector2D(vm, disk) }

// --- Histograms ---

// Histogram is an online histogram; HistogramSnapshot an immutable copy.
type (
	Histogram         = histogram.Histogram
	HistogramSnapshot = histogram.Snapshot
	Histogram2D       = histogram.Hist2D
	Series            = histogram.Series
)

// NewHistogram builds a histogram over arbitrary strictly-increasing bin
// upper edges.
func NewHistogram(name, unit string, edges []int64) *Histogram {
	return histogram.New(name, unit, edges)
}

// RenderHistogramComparison renders snapshots side by side (the layout of
// the paper's overlaid figures).
func RenderHistogramComparison(title string, snaps ...*HistogramSnapshot) string {
	return histogram.RenderCompare(title, snaps...)
}

// HistogramDistance is the total-variation distance between two snapshots'
// normalized distributions, in [0,1].
func HistogramDistance(a, b *HistogramSnapshot) float64 { return analysis.Distance(a, b) }

// --- SCSI and the virtual SCSI layer ---

// Command is a decoded SCSI CDB; Disk is a virtual SCSI disk; Request is a
// command in flight.
type (
	Command    = scsi.Command
	Disk       = vscsi.Disk
	Request    = vscsi.Request
	Observer   = vscsi.Observer
	Backend    = vscsi.Backend
	DiskConfig = vscsi.DiskConfig
)

// BatchObserver is an Observer that additionally accepts whole bursts of
// issued requests through OnIssueBatch; Disk.IssueBatch delivers a burst to
// it in one call, amortizing per-command dispatch. The built-in Collector
// implements it.
type BatchObserver = vscsi.BatchObserver

// Read and Write build block I/O commands (LBA and length in 512-byte
// sectors).
func Read(lba uint64, blocks uint32) Command { return scsi.Read(lba, blocks) }

// Write builds a block write command.
func Write(lba uint64, blocks uint32) Command { return scsi.Write(lba, blocks) }

// NewDisk creates a stand-alone virtual disk over a custom backend; most
// callers provision disks through a Host instead.
func NewDisk(eng *Engine, backend Backend, cfg DiskConfig) *Disk {
	return vscsi.NewDisk(eng, backend, cfg)
}

// --- Hypervisor host ---

// Host assembles datastores, VMs and virtual disks; Vdisk bundles a disk
// with its collector and optional tracer.
type (
	Host     = hypervisor.Host
	VM       = hypervisor.VM
	Vdisk    = hypervisor.Vdisk
	DiskSpec = hypervisor.DiskSpec
)

// SharedDatastore lets several hosts mount the same SAN volume (§3.7's
// unrelated-initiators caveat): export with Host.ExportDatastore, mount
// with Host.AddSharedDatastore.
type SharedDatastore = hypervisor.SharedDatastore

// NewHost creates an empty host on the engine.
func NewHost(eng *Engine) *Host { return hypervisor.NewHost(eng) }

// NewHostOn creates a host whose collectors register into a shared
// registry, pooling several hosts behind one control plane.
func NewHostOn(eng *Engine, reg *Registry) *Host { return hypervisor.NewHostOn(eng, reg) }

// --- Parallel multi-VM driver ---

// ParallelSim runs N independent simulation worlds (engine + host each) on
// separate goroutines with one shared collector registry; SimWorld is one
// such world. Use it for embarrassingly parallel multi-VM studies where
// each VM has its own datastore; VMs contending on one array still belong
// on a single engine.
type (
	ParallelSim = hypervisor.ParallelSim
	SimWorld    = hypervisor.World
)

// NewParallelSim creates n worlds and provisions each via setup. VM names
// must be unique across worlds (derive them from w.Index).
func NewParallelSim(n int, setup func(w *SimWorld)) *ParallelSim {
	return hypervisor.NewParallelSim(n, setup)
}

// --- Storage models ---

// ArrayConfig describes a storage array; the presets mirror the paper's
// testbeds (Table 1, §5.3).
type ArrayConfig = storage.ArrayConfig

// Symmetrix returns the big-cache RAID-5 reference array preset.
func Symmetrix(seed int64) ArrayConfig { return storage.SymmetrixConfig(seed) }

// CX3 returns the 2.5 GB-cache RAID-0 preset; CX3NoCache the same array
// with caching off (the Figure 6 worst case); LocalDisk a single spindle.
func CX3(seed int64) ArrayConfig { return storage.CX3Config(seed) }

// CX3NoCache is the CX3 with caching off (the Figure 6 worst case).
func CX3NoCache(seed int64) ArrayConfig { return storage.CX3NoCacheConfig(seed) }

// LocalDisk is a single direct-attached spindle with no array cache.
func LocalDisk(seed int64) ArrayConfig { return storage.LocalDiskConfig(seed) }

// --- Filesystem models ---

// FS is a mounted filesystem model; File an open file on it.
type (
	FS   = fs.FS
	File = fs.File
)

// Snapshotter is implemented by filesystems with point-in-time snapshots
// (of the bundled models, only ZFS): assert `fsys.(vscsistats.Snapshotter)`.
type Snapshotter = fs.Snapshotter

// Filesystem constructors: update-in-place models (UFS, ext3, NTFS) and the
// copy-on-write ZFS model.
func NewUFS(eng *Engine, d *Disk) FS { return fs.NewPlain(eng, d, fs.UFSConfig()) }

// NewExt3 formats d with the Linux ext3 model (4 KB blocks + journal).
func NewExt3(eng *Engine, d *Disk) FS { return fs.NewPlain(eng, d, fs.Ext3Config()) }

// NewNTFSXP formats d with the Windows XP NTFS model (64 KB transfers).
func NewNTFSXP(eng *Engine, d *Disk) FS {
	return fs.NewPlain(eng, d, fs.NTFSXPConfig())
}

// NewNTFSVista formats d with the Vista NTFS model (1 MB transfers).
func NewNTFSVista(eng *Engine, d *Disk) FS {
	return fs.NewPlain(eng, d, fs.NTFSVistaConfig())
}

// NewZFS formats d with the copy-on-write ZFS model (128 KB records).
func NewZFS(eng *Engine, d *Disk) FS { return fs.NewZFS(eng, d, fs.DefaultZFSConfig()) }

// --- Workload generators ---

// Generator is a runnable workload; the concrete generators mirror §4–§5.
type (
	Generator      = workload.Generator
	WorkloadStats  = workload.Stats
	Model          = workload.Model
	Filebench      = workload.Filebench
	DBT2           = workload.DBT2
	DBT2Config     = workload.DBT2Config
	FileCopy       = workload.FileCopy
	FileCopyConfig = workload.FileCopyConfig
	Iometer        = workload.Iometer
	AccessSpec     = workload.AccessSpec
)

// ParseModel parses the Filebench-style model language; OLTPModel returns
// the paper's OLTP personality at the given data/log sizes, and
// WebServerModel/VarmailModel the classic read-heavy and fsync-heavy
// personalities.
func ParseModel(src string) (*Model, error) { return workload.ParseModel(src) }

// OLTPModel is the paper's Filebench OLTP personality.
func OLTPModel(dataBytes, logBytes int64) *Model {
	return workload.OLTPModel(dataBytes, logBytes)
}

// WebServerModel is the read-heavy webserver personality (docset + log).
func WebServerModel(docSetBytes int64) *Model { return workload.WebServerModel(docSetBytes) }

// VarmailModel is the fsync-heavy mail-spool personality.
func VarmailModel(spoolBytes int64) *Model { return workload.VarmailModel(spoolBytes) }

// NewFilebench interprets a model against a filesystem.
func NewFilebench(eng *Engine, fsys FS, m *Model, seed int64) *Filebench {
	return workload.NewFilebench(eng, fsys, m, seed)
}

// NewDBT2 builds the DBT-2/PostgreSQL model; DefaultDBT2Config mirrors the
// paper's setup.
func NewDBT2(eng *Engine, fsys FS, cfg DBT2Config) *DBT2 {
	return workload.NewDBT2(eng, fsys, cfg)
}

// DefaultDBT2Config mirrors the paper's DBT-2 setup, scaled.
func DefaultDBT2Config() DBT2Config { return workload.DefaultDBT2Config() }

// NewFileCopy builds a chunk-pipelined copy; the XP/Vista configs differ
// only in transfer size (64 KB vs 1 MB).
func NewFileCopy(eng *Engine, fsys FS, cfg FileCopyConfig) *FileCopy {
	return workload.NewFileCopy(eng, fsys, cfg)
}

// XPCopy is the Windows XP 64 KB copy-engine profile.
func XPCopy(fileBytes int64) FileCopyConfig { return workload.XPCopyConfig(fileBytes) }

// VistaCopy is the Windows Vista 1 MB copy-engine profile.
func VistaCopy(fileBytes int64) FileCopyConfig { return workload.VistaCopyConfig(fileBytes) }

// NewIometer drives a raw virtual disk with an access specification.
func NewIometer(eng *Engine, d *Disk, spec AccessSpec) *Iometer {
	return workload.NewIometer(eng, d, spec)
}

// Standard access specifications from the paper's evaluation.
func FourKSeqRead(outstanding int) AccessSpec { return workload.FourKSeqRead(outstanding) }

// EightKRandomRead is the §5.3 8 KB random-read spec at 32 OIO.
func EightKRandomRead() AccessSpec { return workload.EightKRandomRead() }

// EightKSeqRead is the §5.3 8 KB sequential-read spec at 32 OIO.
func EightKSeqRead() AccessSpec { return workload.EightKSeqRead() }

// Synth generates an I/O stream matching a collected snapshot's
// distributions — synthesizing a workload from its characterization rather
// than from a trace (the §6 "synthetic workloads require detailed
// knowledge" gap, closed).
type Synth = workload.Synth

// NewSynthFromSnapshot builds a snapshot-driven generator against a raw
// virtual disk.
func NewSynthFromSnapshot(eng *Engine, d *Disk, s *Snapshot, seed int64) (*Synth, error) {
	return workload.NewSynth(eng, d, s, seed)
}

// NewStatsHandler exposes a registry over HTTP (list, JSON snapshots,
// per-histogram queries, fingerprints, enable/disable/reset).
func NewStatsHandler(reg *Registry) http.Handler { return httpstats.New(reg) }

// --- Observability (internal/telemetry) ---

// MetricsExporter serves GET /metrics in the Prometheus text format;
// LifecycleTracer keeps a ring of issue/complete/control events with
// Chrome trace JSON export (GET /debug/trace); SnapshotStreamer samples
// the registry on an interval and serves per-disk time series plus a live
// SSE feed (GET /watch). SelfSnapshot is a collector's self-telemetry:
// the live version of Table 2's overhead measurement. A MetricsWriter is
// any subsystem that renders its own families on the exporter's scrape
// (FleetAggregator, FleetReExporter, FleetObsTracker, DatacenterSim).
type (
	MetricsExporter  = telemetry.Exporter
	MetricsWriter    = telemetry.MetricsWriter
	LifecycleTracer  = telemetry.LifecycleTracer
	SnapshotStreamer = telemetry.Streamer
	SelfSnapshot     = core.SelfSnapshot
	DiskStatsSource  = telemetry.DiskStatsSource
	StatsOptions     = httpstats.Options
)

// NewMetricsExporter builds a Prometheus exporter over a registry. Chain
// .WithDiskStats(host or parallel sim) to add vSCSI-layer disk counters
// and .With(writer) for each subsystem's series, emitted in attach order.
func NewMetricsExporter(reg *Registry) *MetricsExporter { return telemetry.NewExporter(reg) }

// NewLifecycleTracer builds a ring tracer retaining the last capacity
// events; attach it with Disk.AddObserver and feed control-plane verbs to
// Control.
func NewLifecycleTracer(capacity int) *LifecycleTracer {
	return telemetry.NewLifecycleTracer(capacity)
}

// NewSnapshotStreamer samples reg every interval (wall clock), retaining
// depth interval deltas per disk. Call Start/Stop, or Tick directly for
// deterministic sampling.
func NewSnapshotStreamer(reg *Registry, interval time.Duration, depth int) *SnapshotStreamer {
	return telemetry.NewStreamer(reg, interval, depth)
}

// NewStatsHandlerWith exposes a registry over HTTP with the observability
// surfaces mounted: /metrics, /debug/trace, /watch and per-disk /series.
func NewStatsHandlerWith(reg *Registry, opts StatsOptions) http.Handler {
	return httpstats.NewWith(reg, opts)
}

// --- Fleet federation (internal/fleet) ---

// FleetAgent pushes a registry's snapshots to an aggregator on an
// interval (with timeout, backoff + jitter and a bounded retry queue) —
// full state first, then interval deltas against the last acknowledged
// push, resyncing automatically when the aggregator loses the chain;
// FleetAggregator ingests pushes, scatter-gathers pulls, tracks per-host
// liveness and merges per-host snapshots into per-VM and cluster-wide
// histograms, bin-exact, sharded by consistent host hash with per-shard
// merge memoization. SnapshotBatch is the unit both speak on the wire.
type (
	FleetAgent            = fleet.Agent
	FleetAgentConfig      = fleet.AgentConfig
	FleetAgentStats       = fleet.AgentStats
	FleetAggregator       = fleet.Aggregator
	FleetAggregatorConfig = fleet.AggregatorConfig
	FleetAggregatorStats  = fleet.AggregatorStats
	FleetHostStatus       = fleet.HostStatus
	FleetShardStatus      = fleet.ShardStatus
	FleetTierStatus       = fleet.TierStatus
	FleetLogStats         = fleet.LogStats
	FleetReplayStats      = fleet.ReplayStats
	FleetHistoryResult    = fleet.HistoryResult
	FleetCatalogResult    = fleet.CatalogResult
	FleetCatalogVM        = fleet.CatalogVM
	SnapshotBatch         = fleet.Batch
)

// ErrFleetResyncRequired is returned by FleetAggregator.Ingest for a delta
// batch it cannot apply (unknown host, base-sequence gap); the HTTP push
// surface maps it to 409 and agents answer it with a full-state push.
var ErrFleetResyncRequired = fleet.ErrResyncRequired

// ErrFleetTruncatedFrame matches the subset of wire-decode failures where
// the stream simply ended inside a frame (crash mid-write) rather than
// carrying bytes that contradict the format; segment-log replay truncates
// on it and refuses to start on anything else.
var ErrFleetTruncatedFrame = fleet.ErrTruncatedFrame

// NewFleetAgent builds a fleet agent over the registry; Start launches the
// push loop, PushNow pushes synchronously.
func NewFleetAgent(reg *Registry, cfg FleetAgentConfig) *FleetAgent {
	return fleet.NewAgent(reg, cfg)
}

// NewFleetAggregator builds a memory-only fleet aggregator; mount it via
// StatsOptions.Fleet and chain MetricsExporter.With for the merged
// fleet_* Prometheus series.
func NewFleetAggregator(cfg FleetAggregatorConfig) *FleetAggregator {
	return fleet.NewAggregator(cfg)
}

// OpenFleetAggregator builds a fleet aggregator backed by the crash-safe
// segment log under cfg.DataDir: existing segments replay on boot (so a
// restart recovers the fleet without agent resyncs, truncating a crash-torn
// tail frame), every state-changing batch is appended from then on, and
// the retained log answers GET /fleet/history range queries. With an empty
// DataDir this is exactly NewFleetAggregator.
func OpenFleetAggregator(cfg FleetAggregatorConfig) (*FleetAggregator, FleetReplayStats, error) {
	return fleet.OpenAggregator(cfg)
}

// FleetReExporter makes aggregators composable into trees of arbitrary
// depth (agents → region → global): it re-exports an aggregator's merged
// per-shard state upstream through the same push protocol the aggregator
// ingests — one synthetic host per region by default, or every leaf by
// name with PerHostPassthrough. Upstream wire bytes and ingest scale with
// regions changed, not leaf hosts; quiet intervals send liveness-only
// heartbeats, and a restarted tier resyncs through the boot-incarnation
// 409 protocol exactly like an agent.
type (
	FleetReExporter       = fleet.ReExporter
	FleetReExporterConfig = fleet.ReExporterConfig
	FleetReExporterStats  = fleet.ReExporterStats
)

// NewFleetReExporter wraps the aggregator with an upstream re-export
// loop; Start launches it, ReExportNow flushes synchronously, Stop ends
// it with one final flush. Chain MetricsExporter.With for the
// vscsistats_fleet_tier_reexport_* series.
func NewFleetReExporter(agg *FleetAggregator, cfg FleetReExporterConfig) *FleetReExporter {
	return fleet.NewReExporter(agg, cfg)
}

// EncodeSnapshotBatch and DecodeSnapshotBatch are the fleet wire codec:
// versioned, length-prefixed, gzip-framed — any number of frames can be
// concatenated on one stream.
func EncodeSnapshotBatch(w io.Writer, b *SnapshotBatch) error { return fleet.EncodeBatch(w, b) }

// DecodeSnapshotBatch reads one frame; it never panics on corrupt input.
func DecodeSnapshotBatch(r io.Reader) (*SnapshotBatch, error) { return fleet.DecodeBatch(r) }

// FleetResyncCause classifies why an aggregator demanded a full resync
// (seq-gap, unknown-host, unknown-disk, layout-mismatch); it rides the
// 409 body as resync_cause and is counted per cause in
// FleetAggregatorStats. FleetResyncError is the typed form — it still
// matches errors.Is(err, ErrFleetResyncRequired).
type (
	FleetResyncCause = fleet.ResyncCause
	FleetResyncError = fleet.ResyncError
)

// --- Fleet pipeline observability (internal/fleetobs) ---

// FleetObsTracker characterizes the characterizer: per-stage latency
// histograms over the fleet pipeline (capture, encode, push, decode,
// ingest, log append, fsync, compaction, replay, …), a bounded ring of
// structural events (rotations, resyncs with cause, torn tails,
// compactions), and a top-K slowest-operations ring. Hand one to
// FleetAgentConfig.Obs or FleetAggregatorConfig.Obs, chain
// MetricsExporter.With for the vscsistats_fleetobs_* series,
// and mount ChromeTraceHandler at StatsOptions.FleetTrace. A nil
// tracker is fully inert.
type (
	FleetObsTracker = fleetobs.Tracker
	FleetObsConfig  = fleetobs.Config
	FleetObsEvent   = fleetobs.Event
	FleetObsStage   = fleetobs.Stage
)

// NewFleetObsTracker builds a tracker; the zero config gives a
// 1024-event ring, a top-64 slow ring and 1-in-64 hot-path sampling.
func NewFleetObsTracker(cfg FleetObsConfig) *FleetObsTracker {
	return fleetobs.New(cfg)
}

// --- Datacenter simulation (internal/vscsim) ---

// SimInventory is a deterministic synthetic datacenter generated from a
// single seed: hosts × VMs × disks, each VM assigned a workload
// personality from the fleet population with heavy-tailed intensity.
// DatacenterSim runs every host in the inventory as its own wall-paced
// simulated world — engine, hypervisor, open-loop generators and a real
// fleet agent — multiplexed across worker goroutines in one process, so
// a thousand and more hosts exercise a real sharded aggregator.
// FleetPersonality is one named class in the workload population.
type (
	SimInventory        = vscsim.Inventory
	SimInventoryConfig  = vscsim.Config
	SimHostSpec         = vscsim.HostSpec
	SimVMSpec           = vscsim.VMSpec
	DatacenterSim       = vscsim.Sim
	DatacenterSimConfig = vscsim.SimConfig
	DatacenterSimStats  = vscsim.SimStats
	FleetPersonality    = workload.FleetPersonality
	PacedSpec           = workload.PacedSpec
	PacedGenerator      = workload.Paced
)

// ErrSimRunning rejects deterministic sim operations (RunVirtual,
// PushAll) while wall-paced execution owns the host engines.
var ErrSimRunning = vscsim.ErrRunning

// NewSimInventory generates the synthetic datacenter described by cfg —
// a pure function of cfg.Seed.
func NewSimInventory(cfg SimInventoryConfig) *SimInventory { return vscsim.NewInventory(cfg) }

// NewDatacenterSim builds every host world in the inventory; Start runs
// them wall-paced at cfg.Speed, RunVirtual advances them deterministically.
func NewDatacenterSim(inv *SimInventory, cfg DatacenterSimConfig) (*DatacenterSim, error) {
	return vscsim.New(inv, cfg)
}

// SimReferenceCatalog builds a §7 classification catalog with one
// reference snapshot per personality, each from a short deterministic
// single-VM simulation — install it on an aggregator (SetCatalog) to
// serve GET /fleet/catalog.
func SimReferenceCatalog(seed int64, personalities ...FleetPersonality) (*WorkloadCatalog, error) {
	return vscsim.ReferenceCatalog(seed, personalities...)
}

// FleetPersonalities returns the built-in datacenter workload population.
func FleetPersonalities() []FleetPersonality { return workload.FleetPersonalities() }

// NewPacedGenerator builds the open-loop Poisson-arrival generator the
// simulator drives each virtual disk with.
func NewPacedGenerator(eng *Engine, disk *Disk, spec PacedSpec) *PacedGenerator {
	return workload.NewPaced(eng, disk, spec)
}

// --- Tracing and offline analysis ---

// Tracer captures completed commands; TraceRecord is one command.
type (
	Tracer      = trace.Tracer
	TraceRecord = trace.Record
)

// NewTracer creates a bounded-ring command tracer; attach it with
// Disk.AddObserver.
func NewTracer(capacity int) *Tracer { return trace.NewTracer(capacity) }

// Replay feeds a trace back through a collector; Analyze computes exact
// (unbinned) statistics; SeekLatencyCorrelation builds the §3.6 2-D view.
func Replay(records []TraceRecord, col *Collector) { trace.Replay(records, col) }

// The streaming replay engine: bounded-memory, parallel, format-agnostic.
// RecordSource streams records (io.EOF at end); OpenTrace sniffs the
// encoding (native capture, stream frames, MSR Cambridge CSV, Alibaba
// cloud-trace CSV) and returns a streaming source over it.
type (
	RecordSource = trace.RecordSource
	TraceFormat  = trace.Format
	ReplayConfig = trace.ReplayConfig
	ReplayStats  = trace.ReplayStats
	ReplayResult = trace.ReplayResult
)

// The trace encodings OpenTrace understands.
const (
	TraceFormatAuto    = trace.FormatUnknown
	TraceFormatNative  = trace.FormatNative
	TraceFormatStream  = trace.FormatStream
	TraceFormatMSR     = trace.FormatMSR
	TraceFormatAlibaba = trace.FormatAlibaba
)

// OpenTrace wraps r as a streaming RecordSource, sniffing the format when
// f is TraceFormatAuto; the resolved format is returned alongside.
func OpenTrace(r io.Reader, f TraceFormat) (RecordSource, TraceFormat, error) {
	return trace.Open(r, f)
}

// NewSliceSource adapts an in-memory trace to RecordSource.
func NewSliceSource(records []TraceRecord) RecordSource { return trace.NewSliceSource(records) }

// ReplayParallel replays a source into one collector per (VM, disk)
// substream across a worker pool — bin-exact against Replay per disk, in
// one pass with bounded memory.
func ReplayParallel(src RecordSource, cfg ReplayConfig) (*ReplayResult, error) {
	return trace.ReplayParallel(src, cfg)
}

// ReplayMerged replays a source into one collector with the legacy
// single-stream semantics via a bounded k-way issue-order merge.
func ReplayMerged(src RecordSource, col *Collector, cfg ReplayConfig) (ReplayStats, error) {
	return trace.ReplayMerged(src, col, cfg)
}

// SynthesizeTrace generates a seed-deterministic synthetic trace, so
// benchmarks and tests need no checked-in fixtures.
func SynthesizeTrace(seed int64, n int) []TraceRecord { return trace.Synthesize(seed, n) }

// Analyze recomputes exact (unbinned) workload statistics from a trace.
func Analyze(records []TraceRecord) *analysis.Report {
	return analysis.Analyze(records)
}

// SeekLatencyCorrelation builds the §3.6 seek-distance x latency view.
func SeekLatencyCorrelation(records []TraceRecord) *histogram.Snapshot2D {
	return analysis.SeekLatency(records)
}

// Burstiness summarizes a trace's arrival process (peak-to-mean, index of
// dispersion, Hurst-exponent estimate) at the given window size.
type Burstiness = analysis.Burstiness

// BurstinessOf computes the arrival-process summary over a trace.
func BurstinessOf(records []TraceRecord, windowMicros int64) Burstiness {
	return analysis.BurstinessOf(records, windowMicros)
}

// AggregateSnapshots merges per-disk snapshots into one rollup view.
func AggregateSnapshots(vm, disk string, snaps ...*Snapshot) *Snapshot {
	return core.Aggregate(vm, disk, snaps...)
}

// WorkloadCatalog classifies snapshots against named reference
// characterizations by histogram distance (§7's automatic categorization).
type (
	WorkloadCatalog   = analysis.Catalog
	WorkloadReference = analysis.Reference
	WorkloadMatch     = analysis.Match
)

// NewWorkloadCatalog builds a classification catalog.
func NewWorkloadCatalog(refs ...WorkloadReference) (*WorkloadCatalog, error) {
	return analysis.NewCatalog(refs...)
}

// --- Experiments ---

// ExperimentOptions scales the paper-reproduction experiments;
// ExperimentResult is one regenerated table or figure.
type (
	ExperimentOptions = report.Options
	ExperimentResult  = report.Result
)

// DefaultExperimentOptions returns the standard experiment scale.
func DefaultExperimentOptions() ExperimentOptions { return report.DefaultOptions() }

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(opts ExperimentOptions) ([]*ExperimentResult, error) {
	return report.All(opts)
}

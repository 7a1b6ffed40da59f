package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/trace"
)

// replayMSR is the replay-msr workload: a seeded synthetic trace written
// as MSR Cambridge CSV, characterized offline by trace.Open (format
// autodetected) → ReplayParallel (workers = GOMAXPROCS) → Merged(). Each
// step is one full pass over the file, so the file stays in the page
// cache and the pass measures parse, demux, observe and aggregate.
type replayMSR struct {
	path  string
	lines int64 // block-I/O lines written
	p     *phase

	last      *core.Snapshot // Merged() of the newest pass
	lastStats trace.ReplayStats

	// traced-phase counters for the per-layer metrics
	parseBusy time.Duration
	records   uint64
	bad       uint64
	// the observe-only replay of check, reused by layers
	observe  time.Duration
	observeN int
}

// msrBase is the filetime (100 ns ticks since 1601) of the first line,
// in the range of the published MSR Cambridge traces.
const msrBase = 128166372000000000

func newReplayMSR(e env) (workload, error) {
	recs := trace.Synthesize(e.seed, e.size.replayRecords)
	w := &replayMSR{path: filepath.Join(e.dir, "trace.msr.csv")}
	n, err := writeMSR(w.path, recs)
	if err != nil {
		return nil, err
	}
	w.lines = n
	return w, nil
}

// writeMSR writes the block I/Os of recs as MSR Cambridge CSV lines:
// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime with
// filetime ticks, bytes, and the disk index of the synthetic "diskN"
// name. Cache flushes have no MSR form and are left out.
func writeMSR(path string, recs []trace.Record) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	var n int64
	for i := range recs {
		r := &recs[i]
		var op string
		switch r.Op {
		case scsi.OpRead16:
			op = "Read"
		case scsi.OpWrite16:
			op = "Write"
		default:
			continue
		}
		line = strconv.AppendInt(line[:0], msrBase+r.IssueMicros*10, 10)
		line = append(line, ',')
		line = append(line, r.VM...)
		line = append(line, ',')
		line = append(line, strings.TrimPrefix(r.Disk, "disk")...)
		line = append(line, ',')
		line = append(line, op...)
		line = append(line, ',')
		line = strconv.AppendUint(line, r.LBA*512, 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, uint64(r.Blocks)*512, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.LatencyMicros()*10, 10)
		line = append(line, '\n')
		bw.Write(line)
		n++
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (w *replayMSR) begin(p *phase) {
	w.p = p
	w.parseBusy, w.records, w.bad = 0, 0, 0
}

// timedSource is the timing trace.RecordSource decorator: it estimates
// the time the replay's demultiplexing goroutine spends inside the parser
// by timing one Next call in parseSampleEvery and scaling up. Timing every
// call would add two clock reads to a record that parses in well under a
// microsecond.
type timedSource struct {
	src     trace.RecordSource
	n       uint64
	sampled time.Duration
}

const parseSampleEvery = 16

func (s *timedSource) Next(rec *trace.Record) error {
	s.n++
	if s.n%parseSampleEvery != 0 {
		return s.src.Next(rec)
	}
	t0 := time.Now()
	err := s.src.Next(rec)
	s.sampled += time.Since(t0)
	return err
}

func (s *timedSource) busy() time.Duration { return s.sampled * parseSampleEvery }

func badLines(src trace.RecordSource) uint64 {
	if b, ok := src.(interface{ BadLines() uint64 }); ok {
		return b.BadLines()
	}
	return 0
}

func (w *replayMSR) step(tr *tracer, parent int32, req int64) error {
	t0 := time.Now()
	pass := tr.start("replay.pass", 0, parent, req)
	f, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer f.Close()
	id := tr.start("trace.open", 0, pass, req)
	src, format, err := trace.Open(f, trace.FormatUnknown)
	tr.finish(id)
	if err != nil {
		return err
	}
	if format != trace.FormatMSR {
		return checkf("replay-msr: autodetected %v, want msr", format)
	}
	var ts *timedSource
	in := src
	if tr != nil {
		ts = &timedSource{src: src}
		in = ts
	}
	id = tr.start("core.replay_parallel", 0, pass, req)
	res, err := trace.ReplayParallel(in, trace.ReplayConfig{})
	tr.finish(id)
	if err != nil {
		return err
	}
	if ts != nil {
		tr.attribute(id, "trace.parse", ts.busy())
		w.parseBusy += ts.busy()
	}
	agg := tr.start("core.aggregate", 0, pass, req)
	merged := res.Merged()
	tr.finish(agg)
	d := time.Since(t0)
	tr.finish(pass)

	bad := badLines(src)
	w.p.attempted += int64(res.Stats.Records + bad)
	w.p.failed += int64(bad)
	w.p.ops += int64(res.Stats.Records)
	w.p.rates = append(w.p.rates, float64(res.Stats.Records)/d.Seconds())
	w.p.latency = append(w.p.latency, ms(d))
	w.p.fresh = append(w.p.fresh, ms(d))
	w.records += res.Stats.Records
	w.bad += bad
	w.last, w.lastStats = merged, res.Stats
	if int64(res.Stats.Records) != w.lines || bad != 0 {
		return checkf("replay-msr: replayed %d records with %d bad lines, wrote %d lines", res.Stats.Records, bad, w.lines)
	}
	return nil
}

// check: the streamed result equals, bin for bin, an observe-only replay
// of the materialized parse — the whole file read into memory, then
// replayed by ReplayParallel over a SliceSource, so parsing is excluded.
func (w *replayMSR) check() error {
	if w.last == nil {
		return checkf("replay-msr: no pass completed")
	}
	f, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, _, err := trace.Open(f, trace.FormatUnknown)
	if err != nil {
		return err
	}
	recs, err := trace.ReadAll(src)
	if err != nil {
		return err
	}
	if int64(len(recs)) != w.lines {
		return checkf("replay-msr: materialized parse has %d records, wrote %d lines", len(recs), w.lines)
	}
	t0 := time.Now()
	res, err := trace.ReplayParallel(trace.NewSliceSource(recs), trace.ReplayConfig{})
	if err != nil {
		return err
	}
	w.observe, w.observeN = time.Since(t0), len(recs)
	return checkSame("replay-msr streamed vs observe-only", w.last, res.Merged())
}

func (w *replayMSR) named(p *phase) []metric {
	return []metric{
		{Name: "records_per_s", Value: median(p.rates), Unit: "rec/s"},
		{Name: "pass_p50_ms", Value: quantile(p.latency, 0.5), Unit: "ms"},
	}
}

func (w *replayMSR) layers(tr *tracer, p *phase, m map[string]float64) error {
	m["trace.parse_busy_s"] = w.parseBusy.Seconds()
	if w.records > 0 {
		m["trace.parse_ns_per_record"] = float64(w.parseBusy.Nanoseconds()) / float64(w.records)
	}
	m["trace.bad_lines"] = float64(w.bad)
	m["trace.order_violations"] = float64(w.lastStats.OrderViolations)
	m["trace.disks"] = float64(w.lastStats.Disks)
	m["trace.batches"] = float64(w.lastStats.Batches)
	m["core.observe_busy_s"] = w.observe.Seconds()
	if w.observeN > 0 {
		m["core.observe_ns_per_record"] = float64(w.observe.Nanoseconds()) / float64(w.observeN)
	}
	if passes := tr.count("core.aggregate"); passes > 0 {
		m["core.aggregate_s"] = tr.busy("core.aggregate").Seconds() / float64(passes)
	}
	return nil
}

func (w *replayMSR) close() { os.Remove(w.path) }

package trace

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
)

// The replay benchmarks all consume the same synthesized 1M-record trace
// (built once; Synthesize is seed-deterministic, so every machine measures
// the same workload). BenchmarkTraceReplayLegacy1M is the
// materialize-and-sort baseline; BenchmarkTraceReplay1M is the streaming
// engine pinned single-worker (the honest core-for-core comparison —
// cmd/benchfastpath fences it at ≤0.5× legacy ns/op, i.e. ≥2×
// throughput); BenchmarkTraceReplay1MParallel lets the worker pool use
// GOMAXPROCS (run with -cpu 1,4 to see the fan-out).
var bench1M struct {
	once sync.Once
	recs []Record
}

func bench1MRecords() []Record {
	bench1M.once.Do(func() { bench1M.recs = Synthesize(1, 1<<20) })
	return bench1M.recs
}

func BenchmarkTraceReplayLegacy1M(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := core.NewCollector("v", "d")
		col.Enable()
		Replay(recs, col)
	}
}

func BenchmarkTraceReplay1M(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReplay1MParallel(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay1MMerged measures the k-way merge in front of one
// collector — the legacy single-collector semantics at streaming cost.
func BenchmarkTraceReplay1MMerged(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := core.NewCollector("v", "d")
		if _, err := ReplayMerged(NewSliceSource(recs), col, ReplayConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The parse benchmarks read the same 1M-record trace rendered as MSR
// Cambridge CSV in memory (about 51 MB), so they time the CSV source alone:
// no file I/O, no replay. BenchmarkMSRSource1M is the one-pass csvCursor
// parser, BenchmarkMSRSourceReference1M the field-splitting reference it
// replaced (csvref_test.go); cmd/benchfastpath fences the first at ≤ 0.8×
// the second, both measured in the same session.
var bench1MCSV struct {
	once sync.Once
	csv  []byte
	n    int
}

// bench1MMSR renders the block I/Os of bench1MRecords as MSR CSV lines:
// filetime ticks, hostname, disk index, Read/Write, byte offset and size,
// response time.
func bench1MMSR() ([]byte, int) {
	bench1MCSV.once.Do(func() {
		var b []byte
		for _, r := range bench1MRecords() {
			var op string
			switch r.Op {
			case scsi.OpRead16:
				op = "Read"
			case scsi.OpWrite16:
				op = "Write"
			default:
				continue
			}
			b = strconv.AppendInt(b, 128166372000000000+r.IssueMicros*10, 10)
			b = append(b, ',')
			b = append(b, r.VM...)
			b = append(b, ',')
			b = append(b, strings.TrimPrefix(r.Disk, "disk")...)
			b = append(b, ',')
			b = append(b, op...)
			b = append(b, ',')
			b = strconv.AppendUint(b, r.LBA*512, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.Blocks)*512, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, r.LatencyMicros()*10, 10)
			b = append(b, '\n')
			bench1MCSV.n++
		}
		bench1MCSV.csv = b
	})
	return bench1MCSV.csv, bench1MCSV.n
}

func benchParse(b *testing.B, open func(*bufio.Reader) RecordSource) {
	csv, want := bench1MMSR()
	b.SetBytes(int64(len(csv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := open(bufio.NewReader(bytes.NewReader(csv)))
		var rec Record
		n := 0
		for {
			err := src.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != want {
			b.Fatalf("parsed %d records, want %d", n, want)
		}
	}
}

func BenchmarkMSRSource1M(b *testing.B) {
	benchParse(b, func(br *bufio.Reader) RecordSource { return NewMSRSource(br) })
}

func BenchmarkMSRSourceReference1M(b *testing.B) {
	benchParse(b, func(br *bufio.Reader) RecordSource { return newRefMSRSource(br) })
}

package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"vscsistats/internal/core"
)

// requireSameSnapshot asserts two snapshots are bin-exact across every
// metric family and class, plus the scalar counters.
func requireSameSnapshot(t *testing.T, label string, want, got *core.Snapshot) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: nil mismatch: want %v, got %v", label, want == nil, got == nil)
	}
	if want == nil {
		return
	}
	if want.Commands != got.Commands || want.NumReads != got.NumReads ||
		want.NumWrites != got.NumWrites || want.ReadBytes != got.ReadBytes ||
		want.WriteBytes != got.WriteBytes || want.Errors != got.Errors {
		t.Fatalf("%s: counters differ: want %+v, got %+v", label,
			[]int64{want.Commands, want.NumReads, want.NumWrites, want.ReadBytes, want.WriteBytes, want.Errors},
			[]int64{got.Commands, got.NumReads, got.NumWrites, got.ReadBytes, got.WriteBytes, got.Errors})
	}
	for _, m := range core.Metrics() {
		for _, cl := range []core.Class{core.All, core.Reads, core.Writes} {
			hw, hg := want.Histogram(m, cl), got.Histogram(m, cl)
			if (hw == nil) != (hg == nil) {
				t.Fatalf("%s: %s/%s nil mismatch", label, m, cl)
			}
			if hw == nil {
				continue
			}
			if hw.Total != hg.Total {
				t.Errorf("%s: %s/%s totals differ: want %d, got %d", label, m, cl, hw.Total, hg.Total)
				continue
			}
			for i := range hw.Counts {
				if hw.Counts[i] != hg.Counts[i] {
					t.Errorf("%s: %s/%s bucket %d differs: want %d, got %d",
						label, m, cl, i, hw.Counts[i], hg.Counts[i])
				}
			}
		}
	}
}

// legacyPerDisk replays recs the legacy way, one collector per (VM, disk)
// substream in first-seen order — the oracle for ReplayParallel.
func legacyPerDisk(recs []Record) []*core.Collector {
	var cols []*core.Collector
	seen := make(map[diskKey]bool)
	for _, r := range recs {
		k := diskKey{r.VM, r.Disk}
		if seen[k] {
			continue
		}
		seen[k] = true
		col := core.NewCollector(r.VM, r.Disk)
		col.Enable()
		Replay(Filter(recs, OnlyDisk(r.VM, r.Disk)), col)
		cols = append(cols, col)
	}
	return cols
}

// The streaming merge in front of one collector must rebuild exactly the
// histograms the legacy materialize-and-sort replay built — every metric,
// every class, every bucket.
func TestReplayMergedMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		recs := Synthesize(seed, 20000)

		legacy := core.NewCollector("v", "d")
		legacy.Enable()
		Replay(recs, legacy)

		col := core.NewCollector("v", "d")
		stats, err := ReplayMerged(NewSliceSource(recs), col, ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records != uint64(len(recs)) {
			t.Fatalf("seed %d: replayed %d of %d records", seed, stats.Records, len(recs))
		}
		if stats.OrderViolations != 0 {
			t.Fatalf("seed %d: %d order violations on an ordered capture", seed, stats.OrderViolations)
		}
		requireSameSnapshot(t, "merged", legacy.Snapshot(), col.Snapshot())
	}
}

// A capture arbitrarily permuted still replays bin-exact once the merge
// window covers the displacement: the k-way merge restores global issue
// order just as the legacy sort did.
func TestReplayMergedShuffledInput(t *testing.T) {
	recs := Synthesize(3, 10000)
	legacy := core.NewCollector("v", "d")
	legacy.Enable()
	Replay(recs, legacy)

	shuffled := append([]Record(nil), recs...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	col := core.NewCollector("v", "d")
	stats, err := ReplayMerged(NewSliceSource(shuffled), col, ReplayConfig{MergeWindow: len(shuffled) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OrderViolations != 0 {
		t.Fatalf("%d violations with a full window", stats.OrderViolations)
	}
	requireSameSnapshot(t, "shuffled", legacy.Snapshot(), col.Snapshot())
}

// The parallel engine must be bin-exact against the legacy replay of each
// substream — and give bit-identical results at every worker count, with
// the per-VM and cluster rollups matching the aggregated legacy disks.
func TestReplayParallelMatchesLegacyAllWorkerCounts(t *testing.T) {
	recs := Synthesize(11, 20000)
	oracle := legacyPerDisk(recs)
	oracleSnaps := make([]*core.Snapshot, len(oracle))
	for i, c := range oracle {
		oracleSnaps[i] = c.Snapshot()
	}
	wantMerged := core.Aggregate("*", "*", oracleSnaps...)

	for workers := 1; workers <= 8; workers++ {
		res, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Records != uint64(len(recs)) {
			t.Fatalf("workers=%d: replayed %d of %d", workers, res.Stats.Records, len(recs))
		}
		if res.Stats.OrderViolations != 0 {
			t.Fatalf("workers=%d: %d order violations on an ordered capture", workers, res.Stats.OrderViolations)
		}
		cols := res.Collectors()
		if len(cols) != len(oracle) || res.Stats.Disks != len(oracle) {
			t.Fatalf("workers=%d: %d collectors, oracle has %d", workers, len(cols), len(oracle))
		}
		for i := range cols {
			if cols[i].VM() != oracle[i].VM() || cols[i].Disk() != oracle[i].Disk() {
				t.Fatalf("workers=%d: collector %d is %s/%s, oracle %s/%s", workers, i,
					cols[i].VM(), cols[i].Disk(), oracle[i].VM(), oracle[i].Disk())
			}
			requireSameSnapshot(t, cols[i].VM()+"/"+cols[i].Disk(), oracleSnaps[i], cols[i].Snapshot())
		}
		requireSameSnapshot(t, "cluster rollup", wantMerged, res.Merged())
		requireSameSnapshot(t, "vm rollup", aggregateVM(oracle, recs[0].VM), res.VMSnapshot(recs[0].VM))
	}
}

func aggregateVM(cols []*core.Collector, vm string) *core.Snapshot {
	var snaps []*core.Snapshot
	for _, c := range cols {
		if c.VM() == vm {
			snaps = append(snaps, c.Snapshot())
		}
	}
	return core.Aggregate(vm, "*", snaps...)
}

// ReplayParallel registers its collectors so a live endpoint can scrape a
// replay in flight.
func TestReplayParallelRegistersCollectors(t *testing.T) {
	reg := core.NewRegistry()
	res, err := ReplayParallel(NewSliceSource(Synthesize(5, 2000)), ReplayConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.List()); got != res.Stats.Disks {
		t.Fatalf("registry holds %d collectors, want %d", got, res.Stats.Disks)
	}
}

// Out-of-order records past the lookahead are counted, not dropped.
func TestReplayOrderViolationsCounted(t *testing.T) {
	recs := []Record{
		{Seq: 0, IssueMicros: 100, CompleteMicros: 150, VM: "v", Disk: "d", Op: 0x88, Blocks: 8},
		{Seq: 1, IssueMicros: 50, CompleteMicros: 90, VM: "v", Disk: "d", Op: 0x88, Blocks: 8},
	}
	res, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OrderViolations != 1 {
		t.Fatalf("OrderViolations = %d, want 1", res.Stats.OrderViolations)
	}
	if res.Stats.Records != 2 {
		t.Fatalf("Records = %d, want 2 (violations must not drop records)", res.Stats.Records)
	}
}

// Progress fires on the configured cadence with running counts.
func TestReplayProgressCallback(t *testing.T) {
	var calls []uint64
	_, err := ReplayParallel(NewSliceSource(Synthesize(2, 5000)), ReplayConfig{
		Progress:      func(n uint64) { calls = append(calls, n) },
		ProgressEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 || calls[0] != 1000 || calls[4] != 5000 {
		t.Fatalf("progress calls = %v", calls)
	}
}

// A mid-stream source error surfaces, with the prefix replayed and stats
// reported.
func TestReplayPartialOnSourceError(t *testing.T) {
	recs := Synthesize(4, 1000)
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]

	src, _, err := Open(bytes.NewReader(truncated), FormatStream)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayParallel(src, ReplayConfig{})
	if err == nil {
		t.Fatal("truncated stream replayed without error")
	}
	if res.Stats.Records == 0 || res.Stats.Records >= uint64(len(recs)) {
		t.Fatalf("Records = %d, want a strict prefix of %d", res.Stats.Records, len(recs))
	}

	col := core.NewCollector("*", "*")
	if _, err := ReplayMerged(NewSliceSource(nil), col, ReplayConfig{}); err != nil {
		t.Fatalf("empty source: %v", err)
	}
}

// failingSource yields the first n records of recs, then fails.
type failingSource struct {
	recs []Record
	n    int
}

var errSourceBroke = errors.New("source broke")

func (s *failingSource) Next(rec *Record) error {
	if s.n == 0 {
		return errSourceBroke
	}
	*rec, s.recs = s.recs[0], s.recs[1:]
	s.n--
	return nil
}

// The read-ahead stage keeps the error contract exact: a source failing
// after k records (k off any batch boundary) yields stats and histograms
// for exactly those k records, with the cause wrapped in the error.
func TestReplayParallelErrorReturnsExactPrefix(t *testing.T) {
	recs := Synthesize(9, 5000)
	for _, k := range []int{0, 1, 511, 512, 513, 3 * 512, 4321} {
		res, err := ReplayParallel(&failingSource{recs: recs, n: k}, ReplayConfig{Workers: 3})
		if !errors.Is(err, errSourceBroke) {
			t.Fatalf("k=%d: err = %v, want the source's error", k, err)
		}
		if res.Stats.Records != uint64(k) {
			t.Fatalf("k=%d: Records = %d", k, res.Stats.Records)
		}
		want, err := ReplayParallel(NewSliceSource(recs[:k]), ReplayConfig{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		requireSameSnapshot(t, "prefix", want.Merged(), res.Merged())
	}
}

// Steady-state replay must not allocate per record: slabs, batches and
// merge entries are all reused, so allocations stay O(disks + window),
// orders of magnitude below O(records).
func TestReplayAllocsBounded(t *testing.T) {
	recs := Synthesize(8, 100000)
	allocs := testing.AllocsPerRun(1, func() {
		col := core.NewCollector("v", "d")
		if _, err := ReplayMerged(NewSliceSource(recs), col, ReplayConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	// ~100 structural allocations observed; 5000 is two orders of
	// magnitude below one-per-record.
	if allocs > 5000 {
		t.Fatalf("ReplayMerged: %v allocs for 100k records", allocs)
	}
}

// The merge source is itself a RecordSource: chaining it re-orders and
// then streams records through io.EOF semantics.
func TestMergeSourceSmallWindowViolations(t *testing.T) {
	// Displacement of 3 with window 1: the late record is emitted out of
	// order and counted.
	recs := []Record{
		{IssueMicros: 40, VM: "v", Disk: "a"},
		{IssueMicros: 50, VM: "v", Disk: "a"},
		{IssueMicros: 60, VM: "v", Disk: "a"},
		{IssueMicros: 10, VM: "v", Disk: "b"},
	}
	m := NewMergeSource(NewSliceSource(recs), 1)
	var got []int64
	var rec Record
	for {
		if err := m.Next(&rec); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		got = append(got, rec.IssueMicros)
	}
	if len(got) != 4 {
		t.Fatalf("merged %d records, want 4", len(got))
	}
	if m.Violations() == 0 {
		t.Error("displacement beyond the window must count as a violation")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/trace"
)

// tinySize runs every workload in well under a second.
var tinySize = sizes{setups: 2, replayRecords: 20_000, churnHosts: 4, historyHosts: 4, historyRounds: 6, vmsPerHost: 2}

// lastResult parses the JSON object on the last line of the output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestTinyRuns runs every workload at self-test size, untraced and
// traced: each completes, passes its checks, and reports exactly the
// declared metrics.
func TestTinyRuns(t *testing.T) {
	for _, sp := range specs {
		for _, traced := range []string{"0", "1"} {
			t.Run(sp.name+"/trace="+traced, func(t *testing.T) {
				var out, errb bytes.Buffer
				rc := run([]string{"--workload", sp.name, "--seed", "3", "--seconds", "0.2",
					"--trace", traced, "--workdir", t.TempDir() + "/work"}, tinySize, &out, &errb)
				if rc != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", rc, out.String(), errb.String())
				}
				r := lastResult(t, out.String())
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("result %+v", r)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if traced == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, tinySize, &out, &errb); rc == 0 {
		t.Fatalf("exit 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result: %s", out.String())
	}
}

// replayed returns the merged view of a small synthetic trace.
func replayed(t *testing.T) *core.Snapshot {
	t.Helper()
	res, err := trace.ReplayParallel(trace.NewSliceSource(trace.Synthesize(5, 5000)), trace.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Merged()
}

// TestCheckSameCatchesOneBin moves a single count to the neighbouring bin
// — totals, sums and extrema unchanged — and requires the check to fail.
func TestCheckSameCatchesOneBin(t *testing.T) {
	want := replayed(t)
	if err := checkSame("identical", core.Aggregate("copy", "*", want), want); err != nil {
		t.Fatalf("identical views: %v", err)
	}
	for _, m := range core.Metrics() {
		got := core.Aggregate("copy", "*", want)
		h := got.Histogram(m, core.All)
		moved := false
		for i := 0; i+1 < len(h.Counts); i++ {
			if h.Counts[i] > 0 {
				h.Counts[i]--
				h.Counts[i+1]++
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("%s: no populated bin to perturb", m)
		}
		if err := checkSame("perturbed", got, want); !errors.Is(err, errCheck) {
			t.Errorf("%s: one perturbed bin passed the check (err %v)", m, err)
		}
	}
}

// TestHistoryWindowOffByOne shifts a window's lower edge back one round:
// the window then holds one round too many, and the check must say so.
func TestHistoryWindowOffByOne(t *testing.T) {
	wl, err := newFleetHistory(env{seed: 9, size: tinySize, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*fleetHistory)
	defer w.close()
	last := len(w.bounds) - 1
	shiftedChecks := 0
	for from := 2; from < last; from++ {
		win := window{from, last}
		exact, err := w.agg.History(w.bounds[from], w.bounds[last])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.checkWindow(win, exact); err != nil {
			t.Fatalf("exact window (%d,%d]: %v", from, last, err)
		}
		if w.counts[from] == w.counts[from-1] {
			continue // an idle round: shifting across it changes nothing
		}
		shifted, err := w.agg.History(w.bounds[from-1], w.bounds[last])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.checkWindow(win, shifted); !errors.Is(err, errCheck) {
			t.Errorf("window off by one round at %d passed the check (err %v)", from, err)
		}
		shiftedChecks++
	}
	if shiftedChecks == 0 {
		t.Fatal("every round was idle; no shifted window was checked")
	}
	whole, err := w.agg.History(w.bounds[0], w.bounds[last])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkWindow(window{0, last}, whole); err != nil {
		t.Fatalf("whole log: %v", err)
	}
}

// TestLedgerSumsToWall checks the self-time split on hand-placed spans:
// overlapping siblings share the wall clock, a child's time leaves its
// parent, an attribution moves time between rows, and the rows add up to
// the root's duration.
func TestLedgerSumsToWall(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &tracer{spans: []span{
		{name: "timed", parent: noSpan, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 50 * ms},
		{name: "g", parent: 1, start: 20 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 70 * ms},
	}}
	tr.attribute(3, "b.part", 5*time.Millisecond)
	rows, wall := tr.ledger(0)
	want := map[string]time.Duration{"unaccounted": 40, "a": 20, "g": 10, "b": 25, "b.part": 5}
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
		if w, ok := want[r.Layer]; !ok || (r.Self-w*time.Millisecond).Abs() > time.Microsecond {
			t.Errorf("row %s self %v, want %vms", r.Layer, r.Self, w)
		}
	}
	if wall != 100*time.Millisecond || (sum-wall).Abs() > time.Microsecond {
		t.Fatalf("rows sum to %v, wall %v", sum, wall)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("workload %d %q unknown to the program", i, w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s, program has %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestQuietKeepsQuieterSteps checks that quiet keeps exactly the samples
// of the steps with no more steal than the median step.
func TestQuietKeepsQuieterSteps(t *testing.T) {
	p := &phase{
		rates:     []float64{1, 2, 3, 4},
		latency:   []float64{10, 11, 20, 30, 31, 40},
		heapPeaks: []float64{100, 200, 300, 400},
		steps: []stepMark{
			{rates: 1, latency: 2, stealPct: 5},
			{rates: 2, latency: 3, stealPct: 0},
			{rates: 3, latency: 5, stealPct: 10},
			{rates: 4, latency: 6, stealPct: 1},
		},
	}
	q := p.quiet() // median steal 3: steps 1 and 3
	want := &phase{rates: []float64{2, 4}, latency: []float64{20, 40}, heapPeaks: []float64{200, 400}}
	if fmt.Sprint(q.rates, q.latency, q.heapPeaks) != fmt.Sprint(want.rates, want.latency, want.heapPeaks) {
		t.Fatalf("quiet kept %v %v %v, want %v %v %v", q.rates, q.latency, q.heapPeaks, want.rates, want.latency, want.heapPeaks)
	}
}

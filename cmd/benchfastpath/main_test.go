package main

import (
	"strings"
	"testing"
)

func TestBareName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkTable2StatsOn":      "BenchmarkTable2StatsOn",
		"BenchmarkTable2StatsOn-2":    "BenchmarkTable2StatsOn",
		"BenchmarkInsertParallel-64":  "BenchmarkInsertParallel",
		"BenchmarkFleetTreeIngest10k": "BenchmarkFleetTreeIngest10k",
		"BenchmarkOdd-":               "BenchmarkOdd-",
		"BenchmarkOdd-x2":             "BenchmarkOdd-x2",
	} {
		if got := bareName(in); got != want {
			t.Errorf("bareName(%q) = %q, want %q", in, got, want)
		}
	}
}

var (
	testFences    = []fence{{"BenchmarkTable2StatsOn", "."}}
	testRelFences = []relFence{{bench: "BenchmarkNew", against: "BenchmarkRef", maxPct: -20}}
	twoCPU        = fingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "Test CPU", GoVersion: "go1.24.0"}
)

// twoCPUEntry is an entry recorded at GOMAXPROCS 2, so go test named its
// results with a -2 suffix.
func twoCPUEntry() *benchEntry {
	return &benchEntry{
		Label: "baseline", NumCPU: 2, GOMAXPROCS: 2, CPUModel: "Test CPU", GoVersion: "go1.24.0",
		NsPerOp: map[string]float64{"BenchmarkTable2StatsOn-2": 100},
	}
}

func eval(t *testing.T, entry *benchEntry, here fingerprint, results map[string]float64) (int, string) {
	t.Helper()
	var out strings.Builder
	failed, err := evalFences(&out, "BENCH.json", entry, here, results, testFences, testRelFences, 25)
	if err != nil {
		t.Fatalf("evalFences: %v\n%s", err, out.String())
	}
	return failed, out.String()
}

// On a multi-CPU host go test names results "BenchmarkX-N"; the fences
// still find them, on both the fresh and the recorded side.
func TestFencesKeyByBareName(t *testing.T) {
	results := map[string]float64{"BenchmarkTable2StatsOn-2": 110, "BenchmarkNew-2": 70, "BenchmarkRef-2": 100}
	failed, out := eval(t, twoCPUEntry(), twoCPU, results)
	if failed != 0 || !strings.Contains(out, "Table2StatsOn: 110.00 ns/op") || strings.Contains(out, "SKIP") {
		t.Fatalf("failed=%d, output:\n%s", failed, out)
	}
	results["BenchmarkTable2StatsOn-2"] = 130 // over the +25% limit
	if failed, out = eval(t, twoCPUEntry(), twoCPU, results); failed != 1 || !strings.Contains(out, "FAIL: Table2StatsOn") {
		t.Fatalf("regression not caught: failed=%d, output:\n%s", failed, out)
	}
}

// An absolute fence recorded on a different kind of machine is skipped,
// with both fingerprints, whatever the numbers; relative fences still run.
func TestAbsoluteFenceSkipsForeignFingerprint(t *testing.T) {
	for name, here := range map[string]fingerprint{
		"cpus":       {NumCPU: 4, GOMAXPROCS: 2, CPUModel: "Test CPU", GoVersion: "go1.24.0"},
		"gomaxprocs": {NumCPU: 2, GOMAXPROCS: 1, CPUModel: "Test CPU", GoVersion: "go1.24.0"},
		"model":      {NumCPU: 2, GOMAXPROCS: 2, CPUModel: "Other CPU", GoVersion: "go1.24.0"},
		"go":         {NumCPU: 2, GOMAXPROCS: 2, CPUModel: "Test CPU", GoVersion: "go1.25.0"},
	} {
		results := map[string]float64{"BenchmarkTable2StatsOn": 1e9, "BenchmarkNew": 70, "BenchmarkRef": 100}
		failed, out := eval(t, twoCPUEntry(), here, results)
		if failed != 0 || !strings.Contains(out, "SKIP: Table2StatsOn") ||
			!strings.Contains(out, here.String()) || !strings.Contains(out, twoCPU.String()) {
			t.Errorf("%s: failed=%d, output:\n%s", name, failed, out)
		}
		results["BenchmarkNew"] = 90 // over the relative limit of 80
		if failed, out = eval(t, twoCPUEntry(), here, results); failed != 1 || !strings.Contains(out, "FAIL: New") {
			t.Errorf("%s: relative fence did not run: failed=%d, output:\n%s", name, failed, out)
		}
	}
}

package main

import (
	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
)

// checkSame fails unless got equals want bin for bin: every counter and,
// per histogram, total, sum, extrema and each bin (names are not
// compared; rollups rename).
func checkSame(what string, got, want *core.Snapshot) error {
	if got == nil || want == nil {
		return checkf("%s: missing view (got nil=%v, want nil=%v)", what, got == nil, want == nil)
	}
	if !got.StateEquals(want) {
		return checkf("%s: views differ (commands %d vs %d)", what, got.Commands, want.Commands)
	}
	return nil
}

// checkWindow fails unless a History window saw exactly want commands —
// the difference of the cluster counts recorded at its edges.
func checkWindow(what string, res *fleet.HistoryResult, want int64) error {
	var got int64
	if res != nil && res.Cluster != nil {
		got = res.Cluster.Commands
	}
	if got != want {
		return checkf("%s: window holds %d commands, edges say %d", what, got, want)
	}
	return nil
}

package main

import (
	"bytes"
	"runtime"
	"time"

	"vscsistats/internal/fleet"
)

// codecStats re-times the wire codec and shard apply from outside, on the
// frames this run pushed: fleet.DecodeBatch, fleet.EncodeBatchBytes, and
// Aggregator.Ingest into a memory-only scratch aggregator.
type codecStats struct {
	frames                  int
	decode, encode, ingest  time.Duration
	decodeAllocs, encAllocs uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// add re-times frames[from:]. The earlier frames (the set-up's full
// pushes and the untraced half's deltas) are applied untimed first, so
// every timed delta finds its base in the scratch aggregator.
func (c *codecStats) add(frames [][]byte, from int) error {
	if from >= len(frames) {
		return nil
	}
	timed := frames[from:]

	m0 := mallocs()
	t0 := time.Now()
	for _, f := range timed {
		if _, err := fleet.DecodeBatch(bytes.NewReader(f)); err != nil {
			return err
		}
	}
	c.decode += time.Since(t0)
	c.decodeAllocs += mallocs() - m0

	batches := make([]*fleet.Batch, len(frames))
	for i, f := range frames {
		b, err := fleet.DecodeBatch(bytes.NewReader(f))
		if err != nil {
			return err
		}
		batches[i] = b
	}
	m0 = mallocs()
	t0 = time.Now()
	for _, b := range batches[from:] {
		if _, err := fleet.EncodeBatchBytes(b); err != nil {
			return err
		}
	}
	c.encode += time.Since(t0)
	c.encAllocs += mallocs() - m0

	scratch := fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour})
	for _, b := range batches[:from] {
		if err := scratch.Ingest(b, "push"); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for _, b := range batches[from:] {
		if err := scratch.Ingest(b, "push"); err != nil {
			return err
		}
	}
	c.ingest += time.Since(t0)
	c.frames += len(timed)
	return nil
}

func (c *codecStats) report(m map[string]float64) {
	if c.frames == 0 {
		return
	}
	n := float64(c.frames)
	m["fleet.decode_ns_per_frame"] = float64(c.decode.Nanoseconds()) / n
	m["fleet.decode_allocs_per_frame"] = float64(c.decodeAllocs) / n
	m["fleet.encode_ns_per_frame"] = float64(c.encode.Nanoseconds()) / n
	m["fleet.encode_allocs_per_frame"] = float64(c.encAllocs) / n
	m["fleet.ingest_ns_per_frame"] = float64(c.ingest.Nanoseconds()) / n
}

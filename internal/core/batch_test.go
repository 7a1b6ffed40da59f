package core

import (
	"math/rand"
	"sync"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// randomBurst builds a burst of block-I/O requests (with the occasional
// non-I/O command mixed in) with coherent issue times and outstanding
// counts.
func randomBurst(rng *rand.Rand, now simclock.Time, n int) []*vscsi.Request {
	rs := make([]*vscsi.Request, n)
	for i := range rs {
		var cmd scsi.Command
		switch rng.Intn(10) {
		case 0:
			cmd = scsi.Command{Op: scsi.OpTestUnitReady}
		case 1, 2, 3:
			cmd = scsi.Write(uint64(rng.Intn(1<<20))*8, uint32(8*(1+rng.Intn(4))))
		default:
			cmd = scsi.Read(uint64(rng.Intn(1<<20))*8, uint32(8*(1+rng.Intn(4))))
		}
		rs[i] = &vscsi.Request{
			ID: uint64(i), VM: "vm", Disk: "d", Cmd: cmd,
			IssueTime:          now,
			OutstandingAtIssue: i,
		}
	}
	return rs
}

// TestOnIssueBatchMatchesSequential pins the batch observation path to the
// per-command path: feeding the same bursts through OnIssueBatch and through
// sequential OnIssue calls must produce bin-identical snapshots across every
// metric and class — the proof the amortization is behavior-preserving.
func TestOnIssueBatchMatchesSequential(t *testing.T) {
	seq := NewCollector("vm", "d")
	bat := NewCollector("vm", "d")
	seq.Enable()
	bat.Enable()
	rngA := rand.New(rand.NewSource(7))
	now := simclock.Time(0)
	for burst := 0; burst < 50; burst++ {
		n := 1 + rngA.Intn(100) // exercise both the stack and spill paths
		rs := randomBurst(rngA, now, n)
		for _, r := range rs {
			seq.OnIssue(r)
		}
		bat.OnIssueBatch(rs)
		now += simclock.Time(rngA.Intn(5000)) * simclock.Microsecond
	}
	ss, bs := seq.Snapshot(), bat.Snapshot()
	if ss.Commands != bs.Commands || ss.NumReads != bs.NumReads ||
		ss.NumWrites != bs.NumWrites || ss.ReadBytes != bs.ReadBytes ||
		ss.WriteBytes != bs.WriteBytes {
		t.Fatalf("counters differ: seq %+v batch %+v", ss, bs)
	}
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			hs, hb := ss.Histogram(m, cl), bs.Histogram(m, cl)
			if hs.Total != hb.Total || hs.Sum != hb.Sum {
				t.Errorf("%s/%s: total/sum differ: %d/%d vs %d/%d",
					m, cl, hs.Total, hs.Sum, hb.Total, hb.Sum)
			}
			for i := range hs.Counts {
				if hs.Counts[i] != hb.Counts[i] {
					t.Errorf("%s/%s bin %d: seq %d, batch %d",
						m, cl, i, hs.Counts[i], hb.Counts[i])
				}
			}
			if hs.Min != hb.Min || hs.Max != hb.Max {
				t.Errorf("%s/%s: min/max differ: %d/%d vs %d/%d",
					m, cl, hs.Min, hs.Max, hb.Min, hb.Max)
			}
		}
	}
}

// TestOnIssueBatchDisabledAndUnpublished covers the guard paths: a disabled
// collector ignores bursts, and the Enable race window (enabled flag set,
// histogram set not yet visible) counts drops, like the per-command path.
func TestOnIssueBatchDisabledAndUnpublished(t *testing.T) {
	c := NewCollector("vm", "d")
	rs := randomBurst(rand.New(rand.NewSource(1)), 0, 8)
	c.OnIssueBatch(rs) // disabled: no-op
	if c.Snapshot() != nil {
		t.Fatal("disabled collector recorded a burst")
	}
	if got := c.SelfStats().Observations; got != 0 {
		t.Fatalf("disabled collector counted %d observations", got)
	}
}

// TestOnIssueBatchConcurrent hammers one collector with concurrent bursts,
// single-command issues and snapshots under -race, and then checks no
// sample was lost: the commands counter must equal the ioLength totals.
func TestOnIssueBatchConcurrent(t *testing.T) {
	c := NewCollector("vm", "d")
	c.Enable()
	const issuers = 4
	const bursts = 200
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			now := simclock.Time(0)
			for i := 0; i < bursts; i++ {
				rs := randomBurst(rng, now, 1+rng.Intn(32))
				if rng.Intn(2) == 0 {
					c.OnIssueBatch(rs)
				} else {
					for _, r := range rs {
						c.OnIssue(r)
					}
				}
				now += simclock.Millisecond
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if s := c.Snapshot(); s != nil {
				h := s.Histogram(MetricIOLength, All)
				var sum int64
				for _, n := range h.Counts {
					sum += n
				}
				if h.Total != sum {
					t.Errorf("snapshot %d: ioLength total %d != bin sum %d", i, h.Total, sum)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	s := c.Snapshot()
	if s.Commands == 0 {
		t.Fatal("no commands recorded")
	}
	if got := s.Histogram(MetricIOLength, All).Total; got != s.Commands {
		t.Fatalf("ioLength total %d != commands %d", got, s.Commands)
	}
}

// TestOnCompleteBatchMatchesSequential pins the batched completion path to
// OnComplete: latency bins and the error count are identical.
func TestOnCompleteBatchMatchesSequential(t *testing.T) {
	seq := NewCollector("vm", "d")
	bat := NewCollector("vm", "d")
	seq.Enable()
	bat.Enable()
	rng := rand.New(rand.NewSource(11))
	for burst := 0; burst < 50; burst++ {
		rs := randomBurst(rng, 0, 1+rng.Intn(100))
		for _, r := range rs {
			r.CompleteTime = simclock.Time(rng.Intn(200000)) * simclock.Microsecond
			if rng.Intn(20) == 0 {
				r.Status = scsi.StatusCheckCondition
			}
			seq.OnComplete(r)
		}
		bat.OnCompleteBatch(rs)
	}
	requireSameState(t, seq.Snapshot(), bat.Snapshot())
	if s, b := seq.SelfStats().Observations, bat.SelfStats().Observations; s != b {
		t.Fatalf("observations: sequential %d, batched %d", s, b)
	}
}

// requireSameState requires identical counters and identical histograms
// (bins, total, sum, min, max) for every metric and class.
func requireSameState(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Commands != got.Commands || want.NumReads != got.NumReads ||
		want.NumWrites != got.NumWrites || want.ReadBytes != got.ReadBytes ||
		want.WriteBytes != got.WriteBytes || want.Errors != got.Errors {
		t.Fatalf("counters differ:\nwant %+v\ngot  %+v", want, got)
	}
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			w, g := want.Histogram(m, cl), got.Histogram(m, cl)
			if w.Total != g.Total || w.Sum != g.Sum || w.Min != g.Min || w.Max != g.Max {
				t.Errorf("%s/%s: total/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d",
					m, cl, g.Total, g.Sum, g.Min, g.Max, w.Total, w.Sum, w.Min, w.Max)
			}
			for i := range w.Counts {
				if w.Counts[i] != g.Counts[i] {
					t.Errorf("%s/%s bin %d: %d, want %d", m, cl, i, g.Counts[i], w.Counts[i])
				}
			}
		}
	}
}

// TestBatchStagingConcurrentMonotone runs concurrent OnIssueBatch and
// OnCompleteBatch bursts on one collector while another goroutine
// snapshots it. Every snapshot must have Total == Σbins in every
// histogram, no bin may ever shrink between snapshots, and the final state
// must equal a sequential per-command replay of the same bursts.
//
// The bursts are built so their samples do not depend on the order in
// which the issuers interleave: each burst has a varied prefix and ends
// with the same window-long suffix, and the collector is primed with that
// suffix, so every burst starts from the same stream state.
func TestBatchStagingConcurrentMonotone(t *testing.T) {
	const issuers, perIssuer = 4, 60
	rng := rand.New(rand.NewSource(5))
	mk := func(at simclock.Time, lba uint64, write bool, oio int) *vscsi.Request {
		cmd := scsi.Read(lba, uint32(8*(1+rng.Intn(64))))
		if write {
			cmd = scsi.Write(lba, cmd.Blocks)
		}
		r := &vscsi.Request{Cmd: cmd, IssueTime: at, OutstandingAtIssue: oio,
			CompleteTime: at + simclock.Time(rng.Intn(300000))*simclock.Microsecond}
		if rng.Intn(25) == 0 {
			r.Status = scsi.StatusCheckCondition
		}
		return r
	}
	suffix := make([]*vscsi.Request, DefaultWindow)
	for i := range suffix {
		suffix[i] = mk(simclock.Time(1000+i)*simclock.Millisecond, uint64(i)*4096, i%3 == 0, i)
	}
	bursts := make([][]*vscsi.Request, issuers*perIssuer)
	for b := range bursts {
		n := rng.Intn(80)
		burst := make([]*vscsi.Request, 0, n+len(suffix))
		for i := 0; i < n; i++ {
			at := simclock.Time(rng.Intn(2000000)) * simclock.Microsecond
			burst = append(burst, mk(at, uint64(rng.Intn(1<<24)), rng.Intn(3) == 0, rng.Intn(80)))
		}
		if rng.Intn(10) == 0 {
			burst = append(burst, &vscsi.Request{Cmd: scsi.Command{Op: scsi.OpTestUnitReady}})
		}
		bursts[b] = append(burst, suffix...)
	}

	seq := NewCollector("vm", "d")
	seq.Enable()
	for _, r := range suffix {
		seq.OnIssue(r)
	}
	for _, burst := range bursts {
		for _, r := range burst {
			seq.OnIssue(r)
		}
		for _, r := range burst {
			seq.OnComplete(r)
		}
	}

	c := NewCollector("vm", "d")
	c.Enable()
	c.OnIssueBatch(suffix)
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(mine [][]*vscsi.Request) {
			defer wg.Done()
			for _, burst := range mine {
				c.OnIssueBatch(burst)
				c.OnCompleteBatch(burst)
			}
		}(bursts[g*perIssuer : (g+1)*perIssuer])
	}
	stop := make(chan struct{})
	checked := make(chan int)
	go func() {
		var prev *Snapshot
		n := 0
		defer func() { checked <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			for _, m := range Metrics() {
				for _, cl := range []Class{All, Reads, Writes} {
					h := s.Histogram(m, cl)
					var sum int64
					for i, v := range h.Counts {
						sum += v
						if prev != nil && v < prev.Histogram(m, cl).Counts[i] {
							t.Errorf("snapshot %d: %s/%s bin %d went back from %d to %d",
								n, m, cl, i, prev.Histogram(m, cl).Counts[i], v)
							return
						}
					}
					if h.Total != sum {
						t.Errorf("snapshot %d: %s/%s total %d != bin sum %d", n, m, cl, h.Total, sum)
						return
					}
				}
			}
			prev = s
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-checked; n == 0 {
		t.Fatal("no snapshot taken while bursts ran")
	}
	requireSameState(t, seq.Snapshot(), c.Snapshot())
	if s, b := seq.SelfStats().Observations, c.SelfStats().Observations; s != b {
		t.Fatalf("observations: sequential %d, batched %d", s, b)
	}
}

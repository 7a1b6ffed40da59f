package histogram

import "math"

// Stage accumulates a burst of samples for one Histogram in plain,
// goroutine-private memory and then publishes them in one step: one atomic
// add per bin the burst touched, one for the sum, and one bounds update
// each for the burst's min and max. A burst of n samples over k distinct
// bins thus costs k+1 atomic adds instead of 2n, and the publish cost
// tracks the bins touched, not the layout size — a one-sample burst pays
// what Insert pays.
//
// Publishing keeps the Snapshot guarantees: every cell still only grows,
// and Total is still derived from the bins, so a snapshot taken mid-publish
// sees a prefix of the burst's bin adds and Total == Σbins holds exactly.
//
// A Stage is not safe for concurrent use; give each goroutine its own
// (pool them). The zero value is ready: Begin binds it to a histogram.
type Stage struct {
	h        *Histogram
	counts   []int64 // per bin; zero everywhere except at touched
	touched  []int32 // bins with a non-zero count, in first-touch order
	sum      int64
	min, max int64
}

// Begin binds s to h. s must be empty: new, or published since its last
// Add. The per-bin buffer is reused across histograms of any layout and
// grows only when a wider layout first appears.
func (s *Stage) Begin(h *Histogram) {
	s.h = h
	if cap(s.counts) < h.nbins {
		s.counts = make([]int64, h.nbins)
		s.touched = make([]int32, 0, h.nbins)
		s.min, s.max = math.MaxInt64, math.MinInt64
	}
	s.counts = s.counts[:h.nbins]
}

// Add stages one sample and returns the bin it fell in.
func (s *Stage) Add(v int64) int {
	h := s.h
	var bin int
	if h.lut != nil {
		bin = h.lut.lookup(v)
	} else {
		bin = h.BinIndex(v)
	}
	s.AddAt(bin, v)
	return bin
}

// AddAt stages one sample whose bin is already known — from Add on a stage
// bound to a histogram with the same edges — skipping the bin lookup. The
// per-class histogram triples share a layout, so a sample staged for its
// class is restaged for "all" at the cost of a few plain adds.
func (s *Stage) AddAt(bin int, v int64) {
	if s.counts[bin] == 0 {
		s.touched = append(s.touched, int32(bin))
	}
	s.counts[bin]++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Publish adds the staged samples to the bound histogram and leaves s
// empty, ready for the next Begin. Publishing an empty stage is free.
func (s *Stage) Publish() {
	if len(s.touched) == 0 {
		return
	}
	h := s.h
	base := 0
	if h.stripeMask != 0 {
		base = int(stripeHint()&h.stripeMask) * h.stride
	}
	for _, bin := range s.touched {
		h.cells[base+int(bin)].Add(s.counts[bin])
		s.counts[bin] = 0
	}
	h.cells[base+h.nbins].Add(s.sum)
	h.updateBounds(s.min)
	h.updateBounds(s.max)
	s.touched = s.touched[:0]
	s.sum = 0
	s.min, s.max = math.MaxInt64, math.MinInt64
}

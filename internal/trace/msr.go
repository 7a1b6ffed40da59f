package trace

import (
	"bufio"

	"vscsistats/internal/scsi"
)

// MSRSource streams the MSR Cambridge block-trace CSV format
// (SNIA IOTTA; Narayanan et al., FAST'08):
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp and ResponseTime are Windows filetime ticks (100 ns);
// Offset and Size are bytes. Each line becomes one Record:
// Hostname → VM, DiskNumber → "disk<N>", timestamps rebased to the first
// record and converted to microseconds, Offset/512 → LBA,
// ceil(Size/512) → Blocks, CompleteMicros = issue + ResponseTime.
//
// The MSR corpus does not log queue depth, so Outstanding is
// reconstructed: per disk, a min-heap of completion times is swept at
// each issue, and the commands still in flight at that instant become
// the record's OutstandingAtIssue — the same definition the live vSCSI
// layer uses (other commands issued but not completed).
//
// Malformed lines (headers, truncated tails, locale-formatted numbers,
// over-long hostile lines) are skipped and counted, never fatal: parsing
// a multi-day trace should not abort at one mangled row. Per-disk state is
// bounded too: past csvMaxInterned distinct (Hostname, DiskNumber) pairs,
// a line naming yet another disk is skipped and counted the same way, so a
// hostile CSV with one new hostname per line costs bounded memory.
type MSRSource struct {
	sc *lineScanner
	// disks maps a line's raw "Hostname,DiskNumber" bytes to that disk's
	// state, so a line costs one map probe.
	disks map[string]*msrDisk

	base     uint64 // first timestamp, filetime ticks
	haveBase bool
	seq      uint64
	bad      uint64
}

// msrDisk is MSRSource's state for one (Hostname, DiskNumber): the record
// names, minted once, and the completion heap that reconstructs queue
// depth.
type msrDisk struct {
	vm, disk string
	inflight completionHeap
}

// NewMSRSource streams MSR Cambridge CSV from br.
func NewMSRSource(br *bufio.Reader) *MSRSource {
	return &MSRSource{
		sc:    newLineScanner(br),
		disks: make(map[string]*msrDisk),
	}
}

// BadLines reports lines skipped as malformed or hostile.
func (s *MSRSource) BadLines() uint64 { return s.bad + s.sc.long }

// Next implements RecordSource.
func (s *MSRSource) Next(rec *Record) error {
	for {
		line, ok, err := s.sc.next()
		if err != nil {
			return err
		}
		if !ok || len(line) == 0 {
			continue // over-long (already counted) or blank
		}
		if s.parseLine(line, rec) {
			return nil
		}
		s.bad++
	}
}

func (s *MSRSource) parseLine(line []byte, rec *Record) bool {
	c := csvCursor{line: line}
	ts, ok := c.decimal()
	if !ok {
		return false
	}
	keyStart := c.pos
	host, ok := c.field()
	if !ok || len(host) == 0 {
		return false
	}
	diskNum, ok := c.field()
	if !ok {
		return false
	}
	key := line[keyStart : keyStart+len(host)+1+len(diskNum)]
	typ, ok := c.field()
	if !ok {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(typ, "Read"):
		op = scsi.OpRead16
	case eqFoldBytes(typ, "Write"):
		op = scsi.OpWrite16
	default:
		return false
	}
	offset, ok := c.u64()
	if !ok {
		return false
	}
	size, ok := c.u64()
	if !ok {
		return false
	}
	resp, ok := c.decimal()
	if !ok {
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false // pre-rebase straggler; cannot express a negative time
	}
	d := s.disks[string(key)]
	if d == nil {
		if len(s.disks) >= csvMaxInterned {
			return false // hostile number of disks: bounded table
		}
		d = &msrDisk{vm: string(host), disk: "disk" + string(diskNum)}
		s.disks[string(key)] = d
	}

	issue := int64((ts - s.base) / 10) // 100 ns ticks → µs
	latency := int64(resp / 10)

	// Sweep completions that precede this issue, then count what is left
	// in flight on this disk.
	d.inflight.sweep(issue)
	outstanding := d.inflight.len()
	if outstanding > 0xffff {
		outstanding = 0xffff
	}
	d.inflight.push(issue + latency)

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = issue
	rec.CompleteMicros = issue + latency
	rec.VM = d.vm
	rec.Disk = d.disk
	rec.Op = op
	rec.LBA = offset / 512
	rec.Blocks = uint32((size + 511) / 512)
	rec.Outstanding = uint16(outstanding)
	rec.Status = scsi.StatusGood
	return true
}

// completionHeap is a min-heap of in-flight completion times (µs), used to
// reconstruct queue depth from formats that only log latency.
type completionHeap struct{ t []int64 }

func (h *completionHeap) len() int { return len(h.t) }

// sweep drops every completion at or before now.
func (h *completionHeap) sweep(now int64) {
	for len(h.t) > 0 && h.t[0] <= now {
		h.popMin()
	}
}

func (h *completionHeap) push(t int64) {
	h.t = append(h.t, t)
	i := len(h.t) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.t[p] <= h.t[i] {
			break
		}
		h.t[p], h.t[i] = h.t[i], h.t[p]
		i = p
	}
}

func (h *completionHeap) popMin() {
	last := len(h.t) - 1
	h.t[0] = h.t[last]
	h.t = h.t[:last]
	n := len(h.t)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.t[l] < h.t[min] {
			min = l
		}
		if r < n && h.t[r] < h.t[min] {
			min = r
		}
		if min == i {
			return
		}
		h.t[i], h.t[min] = h.t[min], h.t[i]
		i = min
	}
}

// eqFoldBytes is ASCII case-insensitive equality without allocating.
func eqFoldBytes(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

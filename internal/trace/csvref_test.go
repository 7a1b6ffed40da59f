package trace

import (
	"bufio"
	"bytes"

	"vscsistats/internal/scsi"
)

// The reference CSV line parsers: the field-splitting implementation the
// one-pass csvCursor replaced, kept verbatim as the oracle of the
// differential fuzz targets (FuzzMSRLineMatchesReference,
// FuzzAlibabaLineMatchesReference) and of the parse benchmark's relative
// fence (BenchmarkMSRSourceReference1M). The one change from the original
// is the bounded per-disk table in refMSRSource, which both parsers share.

// csvMaxFields caps the fields splitComma examines per line. The real
// formats have ≤ 7; trailing extras land in the last field.
const csvMaxFields = 12

// splitComma splits line into at most csvMaxFields comma-separated fields,
// reusing the caller's slice. Fields alias the line.
func splitComma(line []byte, fields [][]byte) [][]byte {
	fields = fields[:0]
	for len(fields) < csvMaxFields-1 {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	return append(fields, line)
}

// parseU64 parses an unsigned decimal integer, rejecting empty input,
// non-digits and overflow.
func parseU64(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseScaledU64 parses a non-negative decimal that may carry a fractional
// part ("1234", "1234.56") and returns the value in 1/scale units,
// truncated. Exponents and locale separators are rejected.
func parseScaledU64(b []byte, scale uint64) (uint64, bool) {
	dot := bytes.IndexByte(b, '.')
	if dot < 0 {
		v, ok := parseU64(b)
		if !ok || v > (1<<64-1)/scale {
			return 0, false
		}
		return v * scale, true
	}
	whole, ok := parseU64(b[:dot])
	if !ok || whole > (1<<64-1)/scale {
		return 0, false
	}
	frac := b[dot+1:]
	if len(frac) == 0 {
		return whole * scale, true
	}
	var fv, fs uint64 = 0, 1
	for _, c := range frac {
		if c < '0' || c > '9' {
			return 0, false
		}
		if fs < scale { // further digits are below the target resolution
			fv = fv*10 + uint64(c-'0')
			fs *= 10
		}
	}
	return whole*scale + fv*(scale/fs), true
}

// refMSRSource is the reference MSR Cambridge parser.
type refMSRSource struct {
	sc       *lineScanner
	fields   [][]byte
	vms      *interner
	disks    *interner
	inflight map[diskKey]*completionHeap
	base     uint64
	haveBase bool
	seq      uint64
	bad      uint64
}

func newRefMSRSource(br *bufio.Reader) *refMSRSource {
	return &refMSRSource{
		sc:       newLineScanner(br),
		fields:   make([][]byte, 0, csvMaxFields),
		vms:      newInterner(),
		disks:    newInterner(),
		inflight: make(map[diskKey]*completionHeap),
	}
}

func (s *refMSRSource) BadLines() uint64 { return s.bad + s.sc.long }

func (s *refMSRSource) Next(rec *Record) error {
	for {
		line, ok, err := s.sc.next()
		if err != nil {
			return err
		}
		if !ok || len(line) == 0 {
			continue
		}
		if s.parseLine(line, rec) {
			return nil
		}
		s.bad++
	}
}

func (s *refMSRSource) parseLine(line []byte, rec *Record) bool {
	s.fields = splitComma(line, s.fields)
	if len(s.fields) < 7 || len(s.fields[1]) == 0 {
		return false
	}
	ts, ok := parseScaledU64(s.fields[0], 1)
	if !ok {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(s.fields[3], "Read"):
		op = scsi.OpRead16
	case eqFoldBytes(s.fields[3], "Write"):
		op = scsi.OpWrite16
	default:
		return false
	}
	offset, ok := parseU64(s.fields[4])
	if !ok {
		return false
	}
	size, ok := parseU64(s.fields[5])
	if !ok {
		return false
	}
	resp, ok := parseScaledU64(s.fields[6], 1)
	if !ok {
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false
	}

	issue := int64((ts - s.base) / 10)
	latency := int64(resp / 10)
	vm := s.vms.getPrefixed("", s.fields[1])
	disk := s.disks.getPrefixed("disk", s.fields[2])

	key := diskKey{vm, disk}
	h := s.inflight[key]
	if h == nil {
		if len(s.inflight) >= csvMaxInterned {
			return false
		}
		h = &completionHeap{}
		s.inflight[key] = h
	}
	h.sweep(issue)
	outstanding := h.len()
	if outstanding > 0xffff {
		outstanding = 0xffff
	}
	h.push(issue + latency)

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = issue
	rec.CompleteMicros = issue + latency
	rec.VM = vm
	rec.Disk = disk
	rec.Op = op
	rec.LBA = offset / 512
	rec.Blocks = uint32((size + 511) / 512)
	rec.Outstanding = uint16(outstanding)
	rec.Status = scsi.StatusGood
	return true
}

// refAlibabaSource is the reference Alibaba cloud-trace parser.
type refAlibabaSource struct {
	sc       *lineScanner
	fields   [][]byte
	vms      *interner
	base     uint64
	haveBase bool
	seq      uint64
	bad      uint64
}

func newRefAlibabaSource(br *bufio.Reader) *refAlibabaSource {
	return &refAlibabaSource{
		sc:     newLineScanner(br),
		fields: make([][]byte, 0, csvMaxFields),
		vms:    newInterner(),
	}
}

func (s *refAlibabaSource) BadLines() uint64 { return s.bad + s.sc.long }

func (s *refAlibabaSource) Next(rec *Record) error {
	for {
		line, ok, err := s.sc.next()
		if err != nil {
			return err
		}
		if !ok || len(line) == 0 {
			continue
		}
		if s.parseLine(line, rec) {
			return nil
		}
		s.bad++
	}
}

func (s *refAlibabaSource) parseLine(line []byte, rec *Record) bool {
	s.fields = splitComma(line, s.fields)
	if len(s.fields) < 5 || len(s.fields[0]) == 0 {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(s.fields[1], "R"):
		op = scsi.OpRead16
	case eqFoldBytes(s.fields[1], "W"):
		op = scsi.OpWrite16
	default:
		return false
	}
	offset, ok := parseU64(s.fields[2])
	if !ok {
		return false
	}
	length, ok := parseU64(s.fields[3])
	if !ok {
		return false
	}
	ts, ok := parseScaledU64(s.fields[4], 1)
	if !ok {
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false
	}

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = int64(ts - s.base)
	rec.CompleteMicros = rec.IssueMicros
	rec.VM = s.vms.getPrefixed("dev", s.fields[0])
	rec.Disk = "blk0"
	rec.Op = op
	rec.LBA = offset / 512
	rec.Blocks = uint32((length + 511) / 512)
	rec.Outstanding = 0
	rec.Status = scsi.StatusGood
	return true
}

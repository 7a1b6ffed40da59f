package trace

import (
	"bufio"
	"bytes"
	"io"
)

// Zero-allocation CSV plumbing for the public-trace parsers. The scanners
// hand out slices into reused buffers — amortized-zero-alloc in the steady
// state — and every buffer grows progressively with a hard cap, so a
// hostile input (one multi-gigabyte "line", say) costs bounded memory and
// a skipped record, never an OOM. Same discipline as wire.readSized on the
// push protocol.

const (
	// csvInitialLine is the first allocation for an overflowing line.
	csvInitialLine = 4 << 10
	// csvMaxLine caps per-line memory; longer lines are discarded whole.
	csvMaxLine = 1 << 20
	// csvMaxInterned caps the names and per-disk entries a parser
	// remembers, so a trace with a hostile number of distinct hostnames
	// costs bounded memory: AlibabaSource degrades to per-record name
	// allocation, MSRSource skips (and counts) lines naming a disk past
	// the cap, because its per-disk entry carries state.
	csvMaxInterned = 1 << 16
)

// lineScanner yields one line at a time from a bufio.Reader. The returned
// slice aliases either the reader's internal buffer (common case: no copy,
// no allocation) or the scanner's own overflow buffer, and is valid only
// until the next call.
type lineScanner struct {
	br   *bufio.Reader
	over []byte // overflow buffer for lines longer than br's buffer
	line uint64 // 1-based number of the line most recently returned
	long uint64 // lines discarded for exceeding csvMaxLine
}

func newLineScanner(br *bufio.Reader) *lineScanner { return &lineScanner{br: br} }

// next returns the next line without its terminator, or io.EOF. Lines
// longer than csvMaxLine are discarded (counted in long) and the scan
// moves on; ok=false marks such a discard so callers can skip it without
// mistaking it for an empty line.
func (s *lineScanner) next() (line []byte, ok bool, err error) {
	s.line++
	frag, err := s.br.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(frag) > 0) {
		return trimEOL(frag), true, nil
	}
	if err == io.EOF {
		return nil, false, io.EOF
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	// Long line: accumulate into the overflow buffer with progressive
	// growth, give up past the cap.
	if s.over == nil {
		s.over = make([]byte, 0, csvInitialLine)
	}
	s.over = append(s.over[:0], frag...)
	for {
		frag, err = s.br.ReadSlice('\n')
		keep := len(s.over) <= csvMaxLine
		if keep {
			room := csvMaxLine + 1 - len(s.over)
			if len(frag) < room {
				room = len(frag)
			}
			s.over = append(s.over, frag[:room]...)
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil, io.EOF:
			if err == io.EOF && len(frag) == 0 && len(s.over) == 0 {
				return nil, false, io.EOF
			}
			if len(s.over) > csvMaxLine {
				s.long++
				return nil, false, nil
			}
			return trimEOL(s.over), true, nil
		default:
			return nil, false, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// csvCursor walks one CSV line field by field. The numeric readers find
// a field's terminating comma and accumulate its digits in the same loop,
// so a line is scanned once, with no field slices and no second pass per
// number. Only ASCII digits are accepted — locale variants ("1_000",
// "1e3", "½") are malformed, full stop. A reader that returns ok=false
// leaves the cursor undefined: the caller rejects the whole line.
type csvCursor struct {
	line []byte
	pos  int // start of the next field; len(line)+1 once none is left
}

// field returns the next field's bytes, or ok=false if the line has no
// more fields.
func (c *csvCursor) field() ([]byte, bool) {
	if c.pos > len(c.line) {
		return nil, false
	}
	rest := c.line[c.pos:]
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		c.pos = len(c.line) + 1
		return rest, true
	}
	c.pos += i + 1
	return rest[:i], true
}

// u64 reads the next field as an unsigned decimal integer, rejecting an
// empty field, non-digits and overflow.
func (c *csvCursor) u64() (uint64, bool) {
	line, start := c.line, c.pos
	if start > len(line) {
		return 0, false
	}
	v, i := digitRun(line, start)
	if i < len(line) && line[i] != ',' {
		return 0, false
	}
	c.pos = i + 1
	return digitsValue(line[start:i], v)
}

// decimal reads the next field as a non-negative decimal that may carry a
// fractional part ("1234", "1234.", "1234.56") and returns the whole part
// (some trace exports carry fractions below the format's resolution). A
// missing whole part (".5"), a second dot and exponents are rejected.
func (c *csvCursor) decimal() (uint64, bool) {
	line, start := c.line, c.pos
	if start > len(line) {
		return 0, false
	}
	v, end := digitRun(line, start)
	i := end
	if i < len(line) && line[i] == '.' {
		_, i = digitRun(line, i+1)
	}
	if i < len(line) && line[i] != ',' {
		return 0, false
	}
	c.pos = i + 1
	return digitsValue(line[start:end], v)
}

// digitRun accumulates the run of ASCII digits starting at line[i] and
// returns its value and the index just past it. The value is unchecked —
// it wraps past 19 digits — so callers validate the run with digitsValue.
func digitRun(line []byte, i int) (uint64, int) {
	var v uint64
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	return v, i
}

// digitsValue validates the all-digit run digits whose value v was
// accumulated unchecked. Up to 19 digits cannot overflow a uint64, so only
// a 20-digit run is re-parsed with the overflow test.
func digitsValue(digits []byte, v uint64) (uint64, bool) {
	switch n := len(digits); {
	case n == 0 || n > 20:
		return 0, false
	case n < 20:
		return v, true
	}
	v = 0
	for _, c := range digits {
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// interner deduplicates the name strings a CSV parser mints (AlibabaSource's
// device VMs), so a million records over a dozen devices cost a dozen
// allocations. The
// m[string(b)] lookup compiles to a no-alloc map probe. Past csvMaxInterned
// distinct names it stops remembering (hostile-input bound) but still
// returns correct strings.
type interner struct {
	m map[string]string
}

func newInterner() *interner { return &interner{m: make(map[string]string)} }

// getPrefixed returns the canonical string for prefix+b (e.g. device ids
// rendered as "dev64"), keyed on the raw bytes and minted on first sight.
func (in *interner) getPrefixed(prefix string, b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := prefix + string(b)
	if len(in.m) < csvMaxInterned {
		in.m[string(b)] = s
	}
	return s
}

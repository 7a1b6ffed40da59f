package trace

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"vscsistats/internal/scsi"
)

const msrSample = `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
1000000000,web,0,Read,4096,1536,100
1000000050,web,0,Write,0,512,20
1000000100,db,2,Write,1024,1024,50
1000000200,web,0,read,512,1,0
`

func msrRecords(t *testing.T, csv string) (*MSRSource, []Record) {
	t.Helper()
	src := NewMSRSource(bufio.NewReader(strings.NewReader(csv)))
	recs, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, recs
}

func TestMSRSourceConversion(t *testing.T) {
	src, recs := msrRecords(t, msrSample)
	if len(recs) != 4 {
		t.Fatalf("parsed %d records, want 4", len(recs))
	}
	if src.BadLines() != 1 { // the header
		t.Errorf("BadLines = %d, want 1", src.BadLines())
	}

	r := recs[0]
	if r.VM != "web" || r.Disk != "disk0" || r.Op != scsi.OpRead16 {
		t.Errorf("record 0 identity: %+v", r)
	}
	// Timestamps rebase to the first record; filetime ticks are 100 ns.
	if r.IssueMicros != 0 || r.CompleteMicros != 10 {
		t.Errorf("record 0 times: issue %d complete %d, want 0/10", r.IssueMicros, r.CompleteMicros)
	}
	// Offset/512 → LBA, ceil(Size/512) → Blocks.
	if r.LBA != 8 || r.Blocks != 3 {
		t.Errorf("record 0 geometry: LBA %d blocks %d, want 8/3", r.LBA, r.Blocks)
	}
	if r.Outstanding != 0 || r.Status != scsi.StatusGood || r.Seq != 0 {
		t.Errorf("record 0: %+v", r)
	}

	// Record 1 issues at 5 µs while record 0 (completes at 10 µs) is still
	// in flight on the same disk: reconstructed depth 1.
	if recs[1].IssueMicros != 5 || recs[1].Outstanding != 1 || recs[1].Op != scsi.OpWrite16 {
		t.Errorf("record 1: %+v", recs[1])
	}
	// Record 2 is another host: its own disk, depth 0, disk prefix kept.
	if recs[2].VM != "db" || recs[2].Disk != "disk2" || recs[2].Outstanding != 0 {
		t.Errorf("record 2: %+v", recs[2])
	}
	// Record 3 issues at 20 µs, after both web/disk0 completions (10, 7):
	// the sweep empties the heap. Size 1 still rounds up to one block, and
	// lower-case "read" folds.
	if recs[3].Outstanding != 0 || recs[3].Blocks != 1 || recs[3].Op != scsi.OpRead16 {
		t.Errorf("record 3: %+v", recs[3])
	}
	// Per-disk issue order held (the RecordSource contract).
	if !(recs[0].IssueMicros <= recs[1].IssueMicros && recs[1].IssueMicros <= recs[3].IssueMicros) {
		t.Errorf("web/disk0 out of issue order")
	}
}

func TestMSRSourceMalformedLines(t *testing.T) {
	csv := "garbage\n" +
		"1000,host,0,Read,0,512\n" + // six fields
		"1000,host,0,Flush,0,512,10\n" + // unknown op
		"1_000,host,0,Read,0,512,10\n" + // locale separator
		"1000,host,0,Read,0,512,1.5e3\n" + // exponent
		"not,a,number,Read,0,512,10\n" +
		"\r\n" + // blank CRLF line
		"1000,host,0,Read,0,512,10\r\n" + // valid, CRLF
		"900,host,0,Read,0,512,10\n" + // pre-rebase straggler
		"1010,host,0,Write,512,512,1.75\n" // valid, fraction truncates
	src, recs := msrRecords(t, csv)
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2: %+v", len(recs), recs)
	}
	if src.BadLines() != 7 {
		t.Errorf("BadLines = %d, want 7", src.BadLines())
	}
	if recs[1].IssueMicros != 1 || recs[1].CompleteMicros != 1 {
		t.Errorf("fractional response must truncate to ticks: %+v", recs[1])
	}
}

func TestMSRSourceHostileLongLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("1000,host,0,Read,0,512,10\n")
	sb.WriteString(strings.Repeat("x", csvMaxLine+4096)) // one hostile line
	sb.WriteString("\n1050,host,0,Write,512,512,10\n")
	src, recs := msrRecords(t, sb.String())
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2 (hostile line must not end the scan)", len(recs))
	}
	if src.BadLines() != 1 {
		t.Errorf("BadLines = %d, want 1", src.BadLines())
	}
}

// Hostnames and disk numbers intern in separate tables, so a hostname "3"
// cannot collide with disk number 3.
func TestMSRSourceInternSeparation(t *testing.T) {
	_, recs := msrRecords(t, "1000,3,3,Read,0,512,10\n")
	if len(recs) != 1 || recs[0].VM != "3" || recs[0].Disk != "disk3" {
		t.Fatalf("records: %+v", recs)
	}
}

const alibabaSample = `device_id,opcode,offset,length,timestamp
64,R,4096,1024,1000000
64,W,0,512,1000010
7,r,512,512,1000005.9
`

func TestAlibabaSourceConversion(t *testing.T) {
	src := NewAlibabaSource(bufio.NewReader(strings.NewReader(alibabaSample)))
	recs, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if src.BadLines() != 1 {
		t.Errorf("BadLines = %d, want 1", src.BadLines())
	}
	r := recs[0]
	if r.VM != "dev64" || r.Disk != "blk0" || r.Op != scsi.OpRead16 {
		t.Errorf("record 0 identity: %+v", r)
	}
	if r.IssueMicros != 0 || r.CompleteMicros != 0 || r.LBA != 8 || r.Blocks != 2 {
		t.Errorf("record 0: %+v", r)
	}
	if recs[1].IssueMicros != 10 || recs[1].Op != scsi.OpWrite16 || recs[1].Blocks != 1 {
		t.Errorf("record 1: %+v", recs[1])
	}
	// Fractional µs truncate; lower-case opcode folds; distinct device.
	if recs[2].IssueMicros != 5 || recs[2].VM != "dev7" || recs[2].Op != scsi.OpRead16 {
		t.Errorf("record 2: %+v", recs[2])
	}
}

// The parsers and replay compose: a converted public trace replays into
// collectors like any native capture.
func TestMSRReplayEndToEnd(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")
	ts := uint64(5_000_000)
	for i := 0; i < 5000; i++ {
		host := "web"
		if i%3 == 0 {
			host = "db"
		}
		typ := "Read"
		if i%4 == 0 {
			typ = "Write"
		}
		sb.WriteString(strings.Join([]string{
			uitoa(ts), host, uitoa(uint64(i % 2)), typ,
			uitoa(uint64((i * 7) % 1000 * 4096)), uitoa(uint64(512 << (i % 4))), uitoa(uint64(100 + i%900)),
		}, ","))
		sb.WriteByte('\n')
		ts += uint64(10 + i%50)
	}
	src, f, err := Open(strings.NewReader(sb.String()), FormatUnknown)
	if err != nil || f != FormatMSR {
		t.Fatalf("Open: %v, format %v", err, f)
	}
	res, err := ReplayParallel(src, ReplayConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 5000 || res.Stats.Disks != 4 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	m := res.Merged()
	if m == nil || m.Commands != 5000 || m.NumReads == 0 || m.NumWrites == 0 {
		t.Fatalf("merged rollup: %+v", m)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Steady-state CSV parsing must not allocate per record: lines alias the
// read buffer, numbers decode in place, names intern once.
func TestMSRSourceAllocsBounded(t *testing.T) {
	var sb strings.Builder
	ts := uint64(1_000_000)
	for i := 0; i < 50000; i++ {
		sb.WriteString(uitoa(ts))
		sb.WriteString(",host")
		sb.WriteString(uitoa(uint64(i % 4)))
		sb.WriteString(",0,Read,4096,512,100\n")
		ts += 17
	}
	data := []byte(sb.String())
	allocs := testing.AllocsPerRun(1, func() {
		src := NewMSRSource(bufio.NewReader(bytes.NewReader(data)))
		var rec Record
		var n int
		for src.Next(&rec) == nil {
			n++
		}
		if n != 50000 {
			t.Fatalf("parsed %d records", n)
		}
	})
	// Structural allocations only (reader buffer, interner, heaps) — two
	// orders of magnitude below one-per-record.
	if allocs > 500 {
		t.Fatalf("MSR parse: %v allocs for 50k records", allocs)
	}
}

func TestParseU64(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"18446744073709551615", 1<<64 - 1, true},
		{"18446744073709551616", 0, false}, // overflow
		{"", 0, false},
		{"-1", 0, false},
		{"1_000", 0, false},
		{"1e3", 0, false},
		{"½", 0, false},
		{" 1", 0, false},
		{"123456789012345678901", 0, false}, // 21 digits
	}
	for _, c := range cases {
		got, ok := parseU64([]byte(c.in))
		if got != c.want || ok != c.ok {
			t.Errorf("parseU64(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestParseScaledU64(t *testing.T) {
	cases := []struct {
		in    string
		scale uint64
		want  uint64
		ok    bool
	}{
		{"1234", 1000, 1234000, true},
		{"1234.5", 1000, 1234500, true},
		{"1234.5678", 1000, 1234567, true}, // truncates below resolution
		{"1234.", 1000, 1234000, true},
		{"7.25", 1, 7, true},
		{"1,5", 1000, 0, false}, // locale comma splits fields, never parses
		{"1.5e3", 1000, 0, false},
		{".5", 1000, 0, false}, // no whole part
		{"1.2.3", 1000, 0, false},
		{"18446744073709551615", 1000, 0, false}, // scaled overflow
	}
	for _, c := range cases {
		got, ok := parseScaledU64([]byte(c.in), c.scale)
		if got != c.want || ok != c.ok {
			t.Errorf("parseScaledU64(%q,%d) = %d,%v want %d,%v", c.in, c.scale, got, ok, c.want, c.ok)
		}
	}
}

func TestLineScannerLongLines(t *testing.T) {
	// A line longer than the bufio buffer but under the cap survives via
	// the overflow buffer.
	long := strings.Repeat("a", 100000)
	sc := newLineScanner(bufio.NewReaderSize(strings.NewReader(long+"\nshort"), 4096))
	line, ok, err := sc.next()
	if err != nil || !ok || len(line) != 100000 {
		t.Fatalf("long line: ok=%v err=%v len=%d", ok, err, len(line))
	}
	line, ok, err = sc.next()
	if err != nil || !ok || string(line) != "short" {
		t.Fatalf("tail line: %q ok=%v err=%v", line, ok, err)
	}
	if _, _, err = sc.next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func fuzzSource(t *testing.T, src RecordSource, bad func() uint64) {
	var rec Record
	n := uint64(0)
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("CSV sources skip, never fail: %v", err)
		}
		if rec.VM == "" || rec.Disk == "" {
			t.Fatalf("empty identity: %+v", rec)
		}
		if rec.IssueMicros < 0 || rec.CompleteMicros < rec.IssueMicros {
			t.Fatalf("time order: %+v", rec)
		}
		n++
	}
	_ = n + bad()
}

func FuzzMSRSource(f *testing.F) {
	f.Add([]byte(msrSample))
	f.Add([]byte("1000,host,0,Read,0,512,10\n1000,host,0,Wri"))
	f.Add([]byte("99999999999999999999999999,h,0,Read,18446744073709551615,18446744073709551615,1\n"))
	f.Add([]byte("1000,host,0,Read,1.5,2,5,extra,fields,beyond,the,cap,here\n"))
	f.Add([]byte("1000;host;0;Read;0;512;10\n1000\thost\t0\tRead\t0\t512\t10\n"))
	f.Add([]byte("1000,host,0,Read,0,512,1,5\r\n\r\n,,,,,,\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewMSRSource(bufio.NewReader(bytes.NewReader(data)))
		fuzzSource(t, src, src.BadLines)
	})
}

func FuzzAlibabaSource(f *testing.F) {
	f.Add([]byte(alibabaSample))
	f.Add([]byte("64,R,4096,1024,10000"))
	f.Add([]byte("64,R,4096,1024\n64,W,0,0,0\n64,X,1,1,1\n"))
	f.Add([]byte("١٢٣,R,0,512,1000\n64,R,0,512,1٫5\n"))
	f.Add([]byte(",,,,\n0,R,,,-5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := NewAlibabaSource(bufio.NewReader(bytes.NewReader(data)))
		fuzzSource(t, src, src.BadLines)
	})
}

func TestDetectFormats(t *testing.T) {
	recs := Synthesize(1, 10)
	var native bytes.Buffer
	if err := Write(&native, recs); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw := NewStreamWriter(&stream)
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want Format
	}{
		{"native", native.Bytes(), FormatNative},
		{"stream", stream.Bytes(), FormatStream},
		{"msr", []byte(msrSample), FormatMSR},
		{"msr header only", []byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n"), FormatMSR},
		{"alibaba", []byte(alibabaSample), FormatAlibaba},
	}
	for _, c := range cases {
		src, f, err := Open(bytes.NewReader(c.data), FormatUnknown)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if f != c.want {
			t.Errorf("%s: detected %v, want %v", c.name, f, c.want)
		}
		if _, err := ReadAll(src); err != nil {
			t.Errorf("%s: read after detect: %v", c.name, err)
		}
	}

	if _, _, err := Open(bytes.NewReader([]byte{0x00, 0x01, 0x02}), FormatUnknown); err == nil {
		t.Error("garbage must not sniff to any format")
	}
	src, f, err := Open(bytes.NewReader(nil), FormatUnknown)
	if err != nil || f != FormatStream {
		t.Fatalf("empty input: %v %v", f, err)
	}
	if recs, err := ReadAll(src); err != nil || len(recs) != 0 {
		t.Errorf("empty input reads as empty trace: %v %v", recs, err)
	}
}

// The native and stream sources decode exactly what the writers encoded.
func TestSourcesRoundTrip(t *testing.T) {
	recs := Synthesize(9, 500)

	var native bytes.Buffer
	if err := Write(&native, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewNativeSource(bytes.NewReader(native.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	compareRecords(t, "native", recs, got)

	var stream bytes.Buffer
	sw := NewStreamWriter(&stream)
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(NewStreamSource(bytes.NewReader(stream.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	compareRecords(t, "stream", recs, got)
}

func compareRecords(t *testing.T, label string, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d differs:\nwant %+v\ngot  %+v", label, i, want[i], got[i])
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	for _, f := range []Format{FormatNative, FormatStream, FormatMSR, FormatAlibaba} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if f, err := ParseFormat("auto"); err != nil || f != FormatUnknown {
		t.Errorf("auto: %v %v", f, err)
	}
	if _, err := ParseFormat("sqlite"); err == nil {
		t.Error("unknown format name must error")
	}
}

// The per-disk table is bounded like the name interners: past
// csvMaxInterned distinct (Hostname, DiskNumber) pairs a line naming a new
// disk is skipped and counted, while known disks keep parsing.
func TestMSRSourceBoundsDiskTable(t *testing.T) {
	const extra = 1000
	var sb strings.Builder
	for i := 0; i < csvMaxInterned+extra; i++ {
		sb.WriteString("1000,h")
		sb.WriteString(uitoa(uint64(i)))
		sb.WriteString(",0,Read,0,512,10\n")
	}
	sb.WriteString("1000,h0,0,Write,0,512,10\n") // a known disk still parses
	src, recs := msrRecords(t, sb.String())
	if len(recs) != csvMaxInterned+1 {
		t.Fatalf("parsed %d records, want %d", len(recs), csvMaxInterned+1)
	}
	if src.BadLines() != extra {
		t.Fatalf("BadLines = %d, want %d", src.BadLines(), extra)
	}
	if len(src.disks) != csvMaxInterned {
		t.Fatalf("disk table holds %d entries, want the cap %d", len(src.disks), csvMaxInterned)
	}
	if last := recs[len(recs)-1]; last.VM != "h0" || last.Disk != "disk0" || last.Outstanding != 1 {
		t.Fatalf("known disk after the cap: %+v", last)
	}
}

// sameAsReference drives got and want over the same bytes in lockstep and
// requires identical records, identical errors and identical BadLines
// after every call.
func sameAsReference(t *testing.T, got, want interface {
	RecordSource
	BadLines() uint64
}) {
	t.Helper()
	for i := 0; ; i++ {
		var g, w Record
		gerr, werr := got.Next(&g), want.Next(&w)
		if gerr != werr {
			t.Fatalf("call %d: err %v, reference %v", i, gerr, werr)
		}
		if g != w {
			t.Fatalf("call %d: record\n%+v\nreference\n%+v", i, g, w)
		}
		if gb, wb := got.BadLines(), want.BadLines(); gb != wb {
			t.Fatalf("call %d: BadLines %d, reference %d", i, gb, wb)
		}
		if gerr != nil {
			return
		}
	}
}

// numericEdgeCases are field values on both sides of every numeric rule:
// uint64 limits, over-long digit runs, fractions, CR leftovers.
var numericEdgeCases = []string{
	"18446744073709551615", "18446744073709551616", "99999999999999999999",
	"00000000000000000001", "123456789012345678901", "000000000000000000000",
	"1234.", ".5", "1.2.3", "1.5", "7.25", "0", "", "-1", "1e3", "1_000", " 1", "12\r",
}

func FuzzMSRLineMatchesReference(f *testing.F) {
	f.Add([]byte(msrSample))
	f.Add([]byte("1000,host,0,Read,0,512,10\n1000,host,0,Wri"))
	f.Add([]byte("99999999999999999999999999,h,0,Read,18446744073709551615,18446744073709551615,1\n"))
	f.Add([]byte("1000,host,0,Read,1.5,2,5,extra,fields,beyond,the,cap,here\n"))
	f.Add([]byte("1000;host;0;Read;0;512;10\n1000\thost\t0\tRead\t0\t512\t10\n"))
	f.Add([]byte("1000,host,0,Read,0,512,1,5\r\n\r\n,,,,,,\n"))
	for _, v := range numericEdgeCases {
		f.Add([]byte(v + ",h,0,Read,0,512,10\n"))
		f.Add([]byte("1000,h,0,Write," + v + ",512,10\n"))
		f.Add([]byte("1000,h,0,Read,0," + v + ",10\n"))
		f.Add([]byte("1000,h,0,Read,0,512," + v + "\n"))
	}
	f.Add([]byte("1000,h,0,Read,0,512,10\r\n1001,h,0,Read,0,512,10\r\n"))
	f.Add([]byte("1000,h,0,Read,0,512,10"))                      // exactly 7 fields
	f.Add([]byte("1000,h,0,Read,0,512,10,a,b,c,d,e,f,g,h,i\n"))  // more than 12
	f.Add([]byte("1000,h,0,Read,0,512,10,,,,,,,,,,,,,,1.2.3\n")) // more than 12, junk tail
	f.Add([]byte("1000,h,,Read,0,512,10\n1001,h,0,Read,0,512,10\n"))
	f.Add([]byte("1000,h,0,Read,0,512\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsReference(t,
			NewMSRSource(bufio.NewReader(bytes.NewReader(data))),
			newRefMSRSource(bufio.NewReader(bytes.NewReader(data))))
	})
}

func FuzzAlibabaLineMatchesReference(f *testing.F) {
	f.Add([]byte(alibabaSample))
	f.Add([]byte("64,R,4096,1024,10000"))
	f.Add([]byte("64,R,4096,1024\n64,W,0,0,0\n64,X,1,1,1\n"))
	f.Add([]byte("١٢٣,R,0,512,1000\n64,R,0,512,1٫5\n"))
	f.Add([]byte(",,,,\n0,R,,,-5\n"))
	for _, v := range numericEdgeCases {
		f.Add([]byte("64,R," + v + ",512,1000\n"))
		f.Add([]byte("64,W,0," + v + ",1000\n"))
		f.Add([]byte("64,R,0,512," + v + "\n"))
	}
	f.Add([]byte("64,R,0,512,1000\r\n64,W,0,512,1001\r\n"))
	f.Add([]byte("64,R,0,512,1000"))                         // exactly 5 fields
	f.Add([]byte("64,R,0,512,1000,a,b,c,d,e,f,g,h,i,j,k\n")) // more than 12
	f.Add([]byte("64,R,0,512,1000,,,,,,,,,,,,,,,,1.2.3\n"))  // more than 12, junk tail
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsReference(t,
			NewAlibabaSource(bufio.NewReader(bytes.NewReader(data))),
			newRefAlibabaSource(bufio.NewReader(bytes.NewReader(data))))
	})
}

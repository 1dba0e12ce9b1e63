package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"scotty/internal/core"
	"scotty/internal/obs"
	"scotty/internal/stream"
)

// oracleSource is the CSV feed as the CLI had it before the block reader and
// the in-place parser: bufio.Scanner, one string per line, Split / TrimSpace /
// strconv. It is the reference the new path is compared against — same events
// bit for bit, same lines called malformed, same read error.
func oracleSource(r io.Reader) (events []event, malformed []string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 || len(parts) > 3 {
			malformed = append(malformed, line)
			continue
		}
		ts, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		v, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		key := int64(0)
		var err3 error
		if len(parts) == 3 {
			key, err3 = strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 32)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			malformed = append(malformed, line)
			continue
		}
		events = append(events, event{Time: ts, Seq: int64(len(events)), Value: stream.Tuple{Key: int32(key), V: v}})
	}
	return events, malformed, sc.Err()
}

// checkAgainstOracle runs input through csvSource's scanner, read in pieces
// of at most chunk bytes, and through oracleSource, and compares everything
// observable. The scanner's whole item stream must be stream.Prepare — the
// schedule bench replays — over the oracle's events, rebased as scotty
// rebases them: the same events bit for bit, the same watermarks, in the same
// order. The malformed lines on stderr and the read error must match too.
func checkAgainstOracle(t *testing.T, input []byte, chunk int) {
	t.Helper()
	events, wantBad, wantErr := oracleSource(bytes.NewReader(input))
	oracleRB := &rebaser{step: 1000, margin: 4001}
	wm := stream.Watermarker{Period: 1000, Lag: 2001}
	for i := range events {
		events[i].Time = oracleRB.shift(events[i].Time)
		// The schedule emits a watermark per second of event time the stream
		// advances, in scotty as here: inputs spread past ~an hour (the
		// fuzzer's huge timestamps) are compared without watermarks.
		if ts := events[i].Time; ts < -1<<40 || ts > 1<<40 || ts-events[0].Time > 1<<22 {
			wm.Period = 0
		}
	}
	want := stream.Prepare(wm, events)
	want = want[:len(want)-1] // the closing MaxTime watermark is the run's drain, not the source's

	var got []item
	var stderr strings.Builder
	src := csvSource(&chunkReader{r: bytes.NewReader(input), n: chunk}, &stderr,
		obs.NewRegistry().Counter("scotty_lines_malformed_total"))
	sc := &scanner{ctx: context.Background(), rb: &rebaser{step: 1000, margin: 4001}, feeder: stream.NewFeeder[stream.Tuple](wm),
		send: func(batch []item) { got = append(got, batch...) }}
	gotErr := src(context.Background(), sc)

	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("input %q: read error %v, oracle %v", input, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("input %q: %d items, oracle %d\n got %v\nwant %v", input, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Watermark != w.Watermark || g.Event.Time != w.Event.Time || g.Event.Seq != w.Event.Seq ||
			g.Event.Value.Key != w.Event.Value.Key || math.Float64bits(g.Event.Value.V) != math.Float64bits(w.Event.Value.V) {
			t.Fatalf("input %q: item %d is %+v, oracle %+v", input, i, g, w)
		}
	}
	var wantStderr strings.Builder
	for i, line := range wantBad {
		if i < malformedShown {
			fmt.Fprintf(&wantStderr, "skipping malformed line: %q\n", line)
		}
	}
	if len(wantBad) > 0 {
		fmt.Fprintf(&wantStderr, "input: skipped %d malformed lines\n", len(wantBad))
	}
	if stderr.String() != wantStderr.String() {
		t.Fatalf("input %q: stderr\n%s\noracle\n%s", input, stderr.String(), wantStderr.String())
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// parseCases are the lines where the in-place parser and strconv could
// disagree: what the fast path must decline, and the edges of what it takes.
var parseCases = []string{
	"5,1", "+5,+1", "-5,-1", "-0,-0", "0,0.0", " 1 , 2 ", "\t1,2\t", "1,2,3", "1,2, 3", "1,2,-3", "1,2,+3",
	"1,1e3", "1,1E-3", "1,NaN", "1,nan", "1,Inf", "1,-Inf", "1,+inf", "1,infinity", "1,0x1p3", "1,0x1.8p1", "1,1_000",
	"1,.5", "1,5.", "1,-.5", "1,.", "1,-", "1,+", "1,", ",1", ",", "", "1", "1,2,", "1,2,3,4", "1,,2",
	"1,123456789012345", "1,1234567890123456", "1,0.123456789012345", "1,0.1234567890123456",
	"1,12345678.9012345", "1,123456789.0123456", "1,9007199254740993", "1,0.000000000000001",
	"1,000000000000000000001.5", "1,179769313486231570000000000000000000000",
	"123456789012345678,1", "1234567890123456789,1", "9223372036854775807,1", "9223372036854775808,1",
	"-9223372036854775808,1", "-9223372036854775809,1", "1.0,1", "1e3,1", "0x10,1",
	"1,2,999999999", "1,2,2147483647", "1,2,2147483648", "1,2,-2147483648", "1,2,-2147483649", "1,2,1.0", "1,2,x",
	"1,2\r", "1,2 \r", "# 1,2", "#", "   ", "1;2", "1,2 3", "1,2\x00", "\xff,1", "1,\u00a02", "\u00a01,2",
	"١,٢", "1,2,٣",
}

// TestParseLineMatchesStrconv: same accept/reject and bit-identical
// (ts, value, key) as the Split/TrimSpace/strconv grammar, line by line and
// as one input, LF and CRLF, whole and read a byte at a time.
func TestParseLineMatchesStrconv(t *testing.T) {
	for _, line := range parseCases {
		checkAgainstOracle(t, []byte(line), 4096)
		checkAgainstOracle(t, []byte(line+"\n"), 1)
	}
	checkAgainstOracle(t, []byte(strings.Join(parseCases, "\n")), 4096)
	checkAgainstOracle(t, []byte(strings.Join(parseCases, "\r\n")), 7)
	// A line split across many reads, and one past the length limit.
	long := "1," + strings.Repeat("0", 30_000) + "1.5\n2,3\n"
	checkAgainstOracle(t, []byte(long), 4096)
	checkAgainstOracle(t, []byte("1,2\n3,"+strings.Repeat("7", maxLine)+"\n4,5\n"), 4096)
	checkAgainstOracle(t, []byte("1,2\n3,"+strings.Repeat("7", maxLine-3)+"\n4,5\n"), 4096)
}

func FuzzParseLine(f *testing.F) {
	for _, line := range parseCases {
		f.Add([]byte(line), uint8(0))
	}
	f.Add([]byte("0,1\r\n\r\n# c\n100,2.5,7\nbad\n200,3"), uint8(3))
	// Where the scanner's one loop could go wrong: a line straddling a 4 KiB
	// block, a last line without its newline, CRLF, comments and blank lines
	// between watermarks, a late line right behind a watermark, and
	// epoch-scale timestamps, which rebase by a non-zero offset.
	var straddle bytes.Buffer
	for i := 0; straddle.Len() < blockSize+100; i++ {
		fmt.Fprintf(&straddle, "%d,%d.25,%d\n", i*7, i%1000, i%5)
	}
	f.Add(straddle.Bytes(), uint8(255))
	f.Add([]byte("0,1\n2500,2\n5000,3"), uint8(4))
	f.Add([]byte("0,1\r\n1500,2\r\n4000,3.5\r\n900,4\r\n"), uint8(5))
	f.Add([]byte("0,1\n\n# a comment\n3100,2\n#\n\n  \n6200,3\n# 9000,4\n9300,5\n"), uint8(2))
	f.Add([]byte("0,1\n1000,1\n3001,2\n999,3\n1000,4\n5002,5\n3000,6\n"), uint8(0))
	f.Add([]byte("1700000000000,1\n1700000001500,2\n1700000004000,3\n1699999999000,4\n1700000009000,5\n"), uint8(9))
	f.Fuzz(func(t *testing.T, input []byte, chunk uint8) {
		checkAgainstOracle(t, input, int(chunk)+1)
		checkAgainstOracle(t, input, blockSize)
	})
}

// TestRowsMatchFprintf: the appended row is byte for byte the row the one
// Fprintf used to print, for every prefix shape and value form.
func TestRowsMatchFprintf(t *testing.T) {
	values := []float64{0, 1, -1, 42, 1e6, 123456789, 1e20, 1e21, 1.5e300, 0.5, 0.1, 1.0 / 3, 1e-4, 1e-5, 1e-7,
		5e-324, math.MaxFloat64, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		// Either side of where integral values stop being printed as integers.
		999999, -999999, 1e6 - 0.5, -1e6, 1 << 53, 1e15, 100000, 99999.5}
	oldRow := func(keyed, qPrefix bool, key int32, r core.Result[float64], v any) string {
		pre, tag := "", ""
		if keyed {
			pre += fmt.Sprintf("k%d\t", key)
		}
		if qPrefix {
			pre += fmt.Sprintf("q%d\t", r.Query)
		}
		if r.Update {
			tag = "  (update)"
		}
		return fmt.Sprintf("%s[%d, %d)\t n=%d\t %v%s\n", pre, r.Start+7000, r.End+7000, r.N, v, tag)
	}
	rb := &rebaser{step: 1000, off: 7000, set: true}
	for _, keyed := range []bool{false, true} {
		for _, qPrefix := range []bool{false, true} {
			rows := &rowBuf[float64]{keyed: keyed, qPrefix: qPrefix, rb: rb, appendValue: valueAppender[float64]()}
			var want strings.Builder
			for i, v := range values {
				// Query ids and window ends repeat: their rendered forms are reused.
				r := core.Result[float64]{Query: i % 7, Measure: stream.Time, Start: int64(i) * 1000, End: int64(i/3)*3000 + 2000,
					Value: v, N: int64(i * i), Update: i%2 == 1}
				rows.add(int32(-i), &r)
				want.WriteString(oldRow(keyed, qPrefix, int32(-i), r, v))
			}
			if string(rows.buf) != want.String() || rows.n != len(values) {
				t.Errorf("keyed=%v q=%v: %d rows\n%s\nwant %d\n%s", keyed, qPrefix, rows.n, rows.buf, len(values), want.String())
			}
		}
	}
	// Count-measure bounds are not rebased, and results that are not float64
	// still go through fmt.
	counts := &rowBuf[int64]{rb: rb, appendValue: valueAppender[int64]()}
	counts.add(0, &core.Result[int64]{Measure: stream.Count, Start: 100, End: 200, Value: 100, N: 100})
	if want := "[100, 200)\t n=100\t 100\n"; string(counts.buf) != want {
		t.Errorf("count row %q, want %q", counts.buf, want)
	}
}

// FuzzRowValueMatchesFprintf: whatever float64 a result carries, the row shows
// it as %v does — in particular across the integers the row renders without
// strconv's shortest-digits search.
func FuzzRowValueMatchesFprintf(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 999999, -999999, 1e6 - 0.5, 1e6, -1e6, 1 << 53, 1e15, 0.1, math.NaN(), math.Inf(-1), 5e-324} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		// Random bits are rarely a small integer: try one derived from them too.
		for _, v := range []float64{v, math.Trunc(math.Mod(v, 2e6))} {
			if got, want := string(appendFloat(nil, v)), fmt.Sprintf("%v", v); got != want {
				t.Fatalf("%#x: %b rendered %q, %%v prints %q", bits, v, got, want)
			}
		}
	})
}

// boundaryInput is a stream whose rows depend on everything a read boundary
// could disturb: blank and comment lines, CRLF, a malformed line, no final
// newline, a gap, four keys, and — twice — several tuples in a row that arrive
// behind the watermark (update rows from adjacent events, across keys and
// queries). Without late, the stream is in order, as -store daba requires.
func boundaryInput(late bool) string {
	var b strings.Builder
	b.WriteString("# ts,value,key\r\n\r\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i*50, i%9+1, i%4)
		switch {
		case i == 100:
			b.WriteString("oops\n\n")
		case late && (i == 200 || i == 330):
			ts := i*50 - 3500
			fmt.Fprintf(&b, "%d,20,1\r\n%d,30,2\r\n%d,40,1\r\n%d,0.25,3\n", ts, ts+10, ts-400, ts+900)
		}
	}
	b.WriteString("26000,5,2") // a gap: several watermarks fall due at once
	return b.String()
}

var planTime = regexp.MustCompile(` plan=[^)]*\)`)

// TestReadBoundaryIndependence: how the input happens to be split into reads
// decides how it is batched, and must decide nothing else — stdout, stderr and
// the exit code are those of the whole-input run.
func TestReadBoundaryIndependence(t *testing.T) {
	readers := map[string]func(in string) io.Reader{
		"one-byte":  func(in string) io.Reader { return iotest.OneByteReader(strings.NewReader(in)) },
		"7-byte":    func(in string) io.Reader { return &chunkReader{r: strings.NewReader(in), n: 7} },
		"1000-byte": func(in string) io.Reader { return &chunkReader{r: strings.NewReader(in), n: 1000} },
		"data+err":  func(in string) io.Reader { return iotest.DataErrReader(strings.NewReader(in)) },
	}
	for _, tc := range []struct {
		updates bool // the late tuples must show as update rows
		args    []string
	}{
		{true, []string{"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum"}},
		// Two members answered from a factor window, two by queries of
		// their own: a call's rows come out in two groups.
		{true, []string{"-windows", "sliding:2000:1000,sliding:3000:1000,tumbling:700,session:120", "-agg", "sum"}},
		{true, []string{"-windows", "count:50,count:20", "-agg", "sum"}},
		{true, []string{"-keyed", "-window", "sliding", "-length", "2000", "-slide", "1000", "-agg", "max"}},
		{true, []string{"-keyed", "-windows", "tumbling:1000,session:120", "-agg", "mean"}},
		{false, []string{"-keyed", "-window", "count", "-length", "20", "-agg", "sum"}},
		// Ordered mode: every tuple can emit, and the input must be in order.
		{false, []string{"-store", "daba", "-windows", "sliding:2000:1000,sliding:3000:1000,tumbling:700", "-agg", "sum"}},
		{false, []string{"-store", "daba", "-keyed", "-window", "tumbling", "-length", "1000", "-agg", "sum"}},
	} {
		args, in := tc.args, boundaryInput(tc.args[0] != "-store")
		exec := func(r io.Reader) (string, string, int) {
			var out, errOut strings.Builder
			code := run(context.Background(), args, r, &out, &errOut)
			// The fleet line ends in how long planning took, a wall time.
			return out.String(), planTime.ReplaceAllString(errOut.String(), " plan=T)"), code
		}
		wantOut, wantErr, wantCode := exec(strings.NewReader(in))
		if wantCode != 0 || !strings.Contains(wantErr, `skipping malformed line: "oops"`) {
			t.Fatalf("scotty %v exited %d: %s", args, wantCode, wantErr)
		}
		if tc.updates && !strings.Contains(wantOut, "  (update)") {
			t.Fatalf("scotty %v: no update rows, the late tuples are not late:\n%s", args, wantOut)
		}
		for name, r := range readers {
			out, errOut, code := exec(r(in))
			if out != wantOut || errOut != wantErr || code != wantCode {
				t.Errorf("scotty %v through a %s reader diverged from the whole-input run (exit %d, want %d)\nstderr:\n%s\nwant:\n%s\nstdout:\n%s\nwant:\n%s",
					args, name, code, wantCode, errOut, wantErr, out, wantOut)
			}
		}
	}
}

// TestReadErrorMidLineDrains: a reader that fails in the middle of a line ends
// the input there; everything ingested is still drained, the error is
// reported, and the exit code is 1.
func TestReadErrorMidLineDrains(t *testing.T) {
	r := io.MultiReader(strings.NewReader("0,1\n100,2\n6000,3\n70"), iotest.ErrReader(errors.New("link down")))
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-window", "tumbling", "-length", "1000"}, r, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "input: link down") {
		t.Errorf("exit %d, stderr %q; want 1 and the read error", code, errOut.String())
	}
	for _, row := range []string{"[0, 1000)\t n=2\t 3\n", "[6000, 7000)\t n=1\t 3\n"} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("row %q was not drained:\n%s", row, out.String())
		}
	}
}

// TestMalformedLinesAreCountedAndCapped: the first malformedShown malformed
// lines are echoed, all of them are counted, and the total is reported once.
func TestMalformedLinesAreCountedAndCapped(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 25; i++ {
		fmt.Fprintf(&in, "%d,1\nbad-%d\n", i*100, i)
	}
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-window", "tumbling", "-length", "1000"}, strings.NewReader(in.String()), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if n := strings.Count(errOut.String(), "skipping malformed line: "); n != malformedShown {
		t.Errorf("%d malformed lines echoed, want %d:\n%s", n, malformedShown, errOut.String())
	}
	if !strings.Contains(errOut.String(), `skipping malformed line: "bad-9"`) || strings.Contains(errOut.String(), "bad-10") {
		t.Errorf("the echoed lines are not the first %d:\n%s", malformedShown, errOut.String())
	}
	if !strings.HasSuffix(errOut.String(), "input: skipped 25 malformed lines\n") {
		t.Errorf("no summary of the 25 malformed lines:\n%s", errOut.String())
	}
}

// inOrderCSV renders n in-order lines, two per event-millisecond.
func inOrderCSV(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i/2, i%997)
	}
	return b.Bytes()
}

// keyedCSV is inOrderCSV with a key column over 16 keys: the three-column
// line shape.
func keyedCSV(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i/2, i%997, i%16)
	}
	return b.Bytes()
}

// disorderedCSV is inOrderCSV with a fifth of the lines delayed by up to
// 3.5 s: behind the watermark, some inside the allowed lateness, so the run
// emits update rows.
func disorderedCSV(n int) []byte {
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i / 2), Seq: int64(i), Value: stream.Tuple{V: float64(i % 997)}}
	}
	var b bytes.Buffer
	for _, e := range stream.Apply(stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 1}, ev) {
		fmt.Fprintf(&b, "%d,%d\n", e.Time, int64(e.Value.V))
	}
	return b.Bytes()
}

var slidingSum = []string{"-window", "sliding", "-length", "10000", "-slide", "1000", "-agg", "sum"}

// TestIngestPathIsAllocationFree gates the whole run path — block read,
// in-place scan, watermarks, cuts, ProcessBatch, appended rows, write — at
// zero allocations per line in steady state: a run over 100 000 more lines
// may not allocate more than a run's fixed set-up does. In order, with a key
// column (windowed per key), and with a fifth of the lines late.
func TestIngestPathIsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		input func(n int) []byte
		late  bool // the input's late lines must show as update rows
	}{
		{"in-order", slidingSum, inOrderCSV, false},
		{"keyed", append([]string{"-keyed"}, slidingSum...), keyedCSV, false},
		{"disordered", slidingSum, disorderedCSV, true},
	} {
		if out := runScotty(t, tc.args, string(tc.input(60_000))); strings.Contains(out, "  (update)") != tc.late {
			t.Fatalf("%s: update rows %v, want %v", tc.name, !tc.late, tc.late)
		}
		allocs := func(lines int) float64 {
			in := tc.input(lines)
			return testing.AllocsPerRun(3, func() {
				if code := run(context.Background(), tc.args, bytes.NewReader(in), io.Discard, io.Discard); code != 0 {
					t.Fatalf("scotty %v exited %d", tc.args, code)
				}
			})
		}
		short, long := allocs(50_000), allocs(150_000)
		t.Logf("%s: %.0f allocations for 50k lines, %.0f for 150k", tc.name, short, long)
		if perLine := (long - short) / 100_000; perLine > 0.001 {
			t.Errorf("%s: %.0f allocations for 50k lines, %.0f for 150k: %.4f per line, want 0", tc.name, short, long, perLine)
		}
	}
}

// BenchmarkIngestVsLineRate states the run path's cost per input line beside
// the floor for anything that reads the same bytes: the same block-sized reads
// with the newlines counted and nothing else done. keyed is the same run over
// three-column lines (the key parsed, and ignored without -keyed).
func BenchmarkIngestVsLineRate(b *testing.B) {
	const lines = 150_000
	in := inOrderCSV(lines)
	scotty := func(in []byte) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if code := run(context.Background(), slidingSum, bytes.NewReader(in), io.Discard, io.Discard); code != 0 {
					b.Fatalf("scotty exited %d", code)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
		}
	}
	b.Run("scotty", scotty(in))
	b.Run("keyed", scotty(keyedCSV(lines)))
	b.Run("count-newlines", func(b *testing.B) {
		buf := make([]byte, blockSize)
		for i := 0; i < b.N; i++ {
			r, n := bytes.NewReader(in), 0
			for {
				m, err := r.Read(buf)
				n += bytes.Count(buf[:m], []byte{'\n'})
				if err != nil {
					break
				}
			}
			if n != lines {
				b.Fatalf("counted %d lines", n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
	})
}

// fleet64Args is the csv-ooo-fleet64 invocation: 64 sliding max queries 1 s to
// 64 s long, all sliding by 1 s, two seconds of allowed lateness.
var fleet64Args = func() []string {
	specs := make([]string, 64)
	for i := range specs {
		specs[i] = fmt.Sprintf("sliding:%d:1000", (i+1)*1000)
	}
	return []string{"-windows", strings.Join(specs, ","), "-agg", "max", "-lateness", "2000"}
}()

// fleet64CSV renders the csv-ooo-fleet64 stream: one tuple per 50 event-ms
// with an integer payload below 1000, a fifth of them arriving up to 3.5 s
// late — past the watermark lag but inside the allowed lateness, so they come
// out as update rows.
func fleet64CSV(n int) []byte {
	r := rand.New(rand.NewSource(1))
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i) * 50, Value: stream.Tuple{V: float64(r.Intn(1000))}}
	}
	var b bytes.Buffer
	for _, e := range stream.Apply(stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 1}, ev) {
		fmt.Fprintf(&b, "%d,%d\n", e.Time, int64(e.Value.V))
	}
	return b.Bytes()
}

// lineCounter counts the rows written to it, the update rows among them and
// the writes they took.
type lineCounter struct{ rows, updates, writes int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.rows += bytes.Count(p, []byte{'\n'})
	c.updates += bytes.Count(p, []byte("  (update)\n"))
	c.writes++
	return len(p), nil
}

// BenchmarkFleet64Emit is the in-process rung for csv-ooo-fleet64: run() over
// that workload's stream and query set, where the time goes into factored
// emission and row rendering (docs/PERFORMANCE.md "Fleet emission"). allocs/row
// is marginal — what the second half of the stream allocates per row it emits;
// updates/tuple counts the update rows among rows/tuple; writes/tuple is how
// often stdout is written.
func BenchmarkFleet64Emit(b *testing.B) {
	const tuples = 20_000
	in := fleet64CSV(tuples)
	measure := func(in []byte) (out lineCounter, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if code := run(context.Background(), fleet64Args, bytes.NewReader(in), &out, io.Discard); code != 0 {
			b.Fatalf("scotty exited %d", code)
		}
		runtime.ReadMemStats(&after)
		return out, after.Mallocs - before.Mallocs
	}
	half := in[:bytes.LastIndexByte(in[:len(in)/2], '\n')+1]
	halfOut, halfMallocs := measure(half)
	out, mallocs := measure(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := run(context.Background(), fleet64Args, bytes.NewReader(in), io.Discard, io.Discard); code != 0 {
			b.Fatalf("scotty exited %d", code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuples, "ns/tuple")
	b.ReportMetric(float64(out.rows)/tuples, "rows/tuple")
	b.ReportMetric(float64(out.updates)/tuples, "updates/tuple")
	b.ReportMetric(float64(out.writes)/tuples, "writes/tuple")
	b.ReportMetric((float64(mallocs)-float64(halfMallocs))/float64(out.rows-halfOut.rows), "allocs/row")
}

// TestCancelMidBlockKeepsOrdinaryInput: a cancellation that arrives while a
// block is being scanned cuts nothing while each tuple makes at most one
// watermark due — the block goes out whole, as an uncanceled scan sends it,
// so no line consumed from the input is lost. Only a walk across a gap stops:
// after its first watermark, before the event that opened it.
func TestCancelMidBlockKeepsOrdinaryInput(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	scan := func(ctx context.Context, input string) []item {
		var got []item
		sc := &scanner{ctx: ctx, rb: &rebaser{step: 1000, margin: 4001},
			feeder: stream.NewFeeder[stream.Tuple](stream.Watermarker{Period: 1000, Lag: 2001}),
			send:   func(batch []item) { got = append(got, batch...) }}
		src := csvSource(strings.NewReader(input), io.Discard, obs.NewRegistry().Counter("scotty_lines_malformed_total"))
		if err := src(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		return got
	}
	var in strings.Builder
	for ts := 0; ts <= 20_000; ts += 250 {
		fmt.Fprintf(&in, "%d,1\n", ts)
	}
	want := scan(context.Background(), in.String())
	if got := scan(canceled, in.String()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("canceled scan sent %d items, uncanceled %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}

	in.WriteString("90000000000000,3\n20250,1\n")
	got := scan(canceled, in.String())
	if n := len(got); n != len(want)+1 || got[n-1].Kind != stream.KindWatermark {
		t.Fatalf("canceled gap walk sent %d items, want the %d before the gap and one watermark of it:\n%v", n, len(want), got[len(want):])
	}
}

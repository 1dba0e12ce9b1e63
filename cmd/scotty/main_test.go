package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
)

// resultLine matches one emitted window row: "[start, end)\t n=N\t value".
var resultLine = regexp.MustCompile(`^\[-?\d+, -?\d+\)\t n=\d+\t \S`)

func runScotty(t *testing.T, args []string, stdin string) string {
	t.Helper()
	var out, errOut strings.Builder
	code := run(context.Background(), args, strings.NewReader(stdin), &out, &errOut)
	if code != 0 {
		t.Fatalf("scotty %v exited %d: %s", args, code, errOut.String())
	}
	return out.String()
}

func checkRows(t *testing.T, output string) int {
	t.Helper()
	rows := 0
	for _, line := range strings.Split(strings.TrimRight(output, "\n"), "\n") {
		if !resultLine.MatchString(line) {
			t.Fatalf("malformed result row %q", line)
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("no window results emitted")
	}
	return rows
}

func TestDemoStreamEmitsWellFormedResults(t *testing.T) {
	out := runScotty(t, []string{"-window", "tumbling", "-length", "5000", "-agg", "sum", "-demo", "2000"}, "")
	checkRows(t, out)
}

func TestCSVStdinTumblingSum(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,1\n", i*100)
	}
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "count"}, b.String())
	rows := checkRows(t, out)
	// 200 events at 100ms spacing cover [0, 20000): ten 2s windows, the
	// last closed by the final watermark.
	if rows < 9 {
		t.Fatalf("expected ~10 tumbling windows, got %d rows:\n%s", rows, out)
	}
	if !strings.Contains(out, "n=20") {
		t.Fatalf("each full window should count 20 events:\n%s", out)
	}
}

func TestSessionAndHolisticAggregates(t *testing.T) {
	for _, agg := range []string{"median", "p90", "m4", "mean"} {
		out := runScotty(t, []string{"-window", "session", "-gap", "1000", "-agg", agg, "-demo", "1000", "-ooo", "0.1"}, "")
		checkRows(t, out)
	}
}

// TestStoreFlagSelectsDABA: every store kind must print the same windows for
// the same in-order CSV stream, and the daba store must reject flags that
// imply out-of-order input.
func TestStoreFlagSelectsDABA(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*50, i%7)
	}
	args := func(store string) []string {
		return []string{"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum", "-store", store}
	}
	want := runScotty(t, args("lazy"), b.String())
	checkRows(t, want)
	for _, store := range []string{"eager", "daba"} {
		if got := runScotty(t, args(store), b.String()); got != want {
			t.Fatalf("-store %s output diverged from lazy:\n%s\nvs\n%s", store, got, want)
		}
	}

	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-store", "heap", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("unknown store should exit non-zero")
	}
	if code := run(context.Background(), []string{"-store", "daba", "-ooo", "0.2", "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("-store daba with -ooo should exit non-zero")
	}
}

// TestEpochTimestampsRebased guards the epoch-scale path end to end: raw
// epoch-millisecond CSV must finish in O(events) — the window sequence is
// rebased near the first tuple instead of being walked up from time zero
// (hundreds of millions of empty windows) — while printed bounds stay
// absolute.
func TestEpochTimestampsRebased(t *testing.T) {
	const base = int64(1_700_000_000_000)
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "%d,1\n", base+int64(i)*10)
	}
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "count"}, b.String())
	rows := checkRows(t, out)
	// 1000 events over 10s: five full 2s windows plus at most a couple of
	// margin windows around the edges — anything large means the leading
	// empty-window flood is back.
	if rows < 5 || rows > 12 {
		t.Fatalf("expected ~5 tumbling windows, got %d rows:\n%s", rows, out)
	}
	if !strings.Contains(out, fmt.Sprintf("[%d, %d)\t n=200\t 200", base, base+2000)) {
		t.Fatalf("first full window should print absolute epoch bounds:\n%s", out)
	}
}

// TestSmallTimestampsNotRebased pins the rebase no-op: streams starting near
// time zero keep the historical output byte for byte.
func TestSmallTimestampsNotRebased(t *testing.T) {
	out := runScotty(t, []string{"-window", "tumbling", "-length", "2000", "-agg", "sum"}, "1000,3.5\n2000,4.5\n")
	want := "[0, 2000)\t n=1\t 3.5\n[2000, 4000)\t n=1\t 4.5\n"
	if out != want {
		t.Fatalf("output changed:\n got %q\nwant %q", out, want)
	}
}

// fleetLine matches one fleet result row: "q<id>\t[start, end)\t n=N\t value".
var fleetLine = regexp.MustCompile(`^q(\d+)\t(\[-?\d+, -?\d+\)\t n=\d+\t \S.*)$`)

// TestWindowsFleetMatchesSingleRuns pins the -windows fleet path against the
// single-window path: each member's q<id>-prefixed rows must be exactly the
// rows a standalone run of that window prints, and an exact-duplicate member
// must share its twin's physical query (visible in the plan line on stderr)
// while still printing its own rows.
func TestWindowsFleetMatchesSingleRuns(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*50, i%7)
	}
	in := b.String()

	var out, errOut strings.Builder
	args := []string{"-windows", "sliding:2000:500,tumbling:1000,sliding:2000:500", "-agg", "sum"}
	if code := run(context.Background(), args, strings.NewReader(in), &out, &errOut); code != 0 {
		t.Fatalf("fleet run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "fleet(logical=3 physical=2") {
		t.Fatalf("duplicate member not deduplicated; plan line: %s", errOut.String())
	}

	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		m := fleetLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed fleet row %q", line)
		}
		rows["q"+m[1]] = append(rows["q"+m[1]], m[2])
	}
	sortRows := func(rs []string) string {
		s := append([]string(nil), rs...)
		sort.Strings(s)
		return strings.Join(s, "\n")
	}

	singles := map[string][]string{
		"q0": {"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum"},
		"q1": {"-window", "tumbling", "-length", "1000", "-agg", "sum"},
	}
	for id, args := range singles {
		want := runScotty(t, args, in)
		got := rows[id]
		if sortRows(got) != sortRows(strings.Split(strings.TrimRight(want, "\n"), "\n")) {
			t.Fatalf("%s rows diverged from the standalone run:\n%s\nvs\n%s", id, strings.Join(got, "\n"), want)
		}
	}
	if sortRows(rows["q2"]) != sortRows(rows["q0"]) {
		t.Fatalf("duplicate q2 rows diverged from q0:\nq2:\n%s\nq0:\n%s", strings.Join(rows["q2"], "\n"), strings.Join(rows["q0"], "\n"))
	}
}

// TestSlidingPlusSessionUnderDisorder: a session whose gap (700 ms) is shorter
// than the disorder (up to 3.5 s) beside a sliding window. Late tuples open
// sessions between the sliding edges, which used to panic the core on this
// very input ("window boundary inside populated slice"). Every window now ends
// on the oracle's row; a session announced before a late tuple extended or
// bridged it keeps its row, inside the oracle's session.
func TestSlidingPlusSessionUnderDisorder(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	events := make([]stream.Event[stream.Tuple], 400)
	ts := int64(0)
	for i := range events {
		ts += int64(rng.Intn(1500))
		events[i] = stream.Event[stream.Tuple]{Time: ts, Seq: int64(i), Value: stream.Tuple{V: float64(rng.Intn(100))}}
	}
	var in strings.Builder
	for _, e := range stream.Apply(stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 132}, events) {
		fmt.Fprintf(&in, "%d,%d\n", e.Time, int64(e.Value.V))
	}
	got := lastRows(runScotty(t, []string{"-windows", "sliding:4000:1000,session:700", "-agg", "sum", "-lateness", "2000"}, in.String()))

	f := aggregate.Sum(stream.Val)
	sliding := reference.Finals(f, reference.Query[stream.Tuple]{Kind: reference.Periodic, Measure: stream.Time, Length: 4000, Slide: 1000}, events, stream.MaxTime)
	sessions := reference.Finals(f, reference.Query[stream.Tuple]{Kind: reference.Session, Gap: 700}, events, stream.MaxTime)
	known := map[string]bool{}
	for q, want := range [][]reference.Final[float64]{sliding, sessions} {
		for _, w := range want {
			win := fmt.Sprintf("q%d\t[%d, %d", q, w.Start, w.End)
			known[win] = true
			if row, ok := got[win]; w.N > 0 && row != fmt.Sprintf(" n=%d\t %v", w.N, w.Value) {
				t.Errorf("window %s) ends on %q (printed %v), oracle n=%d %v", win, row, ok, w.N, w.Value)
			}
		}
	}
	for win := range got {
		var q int
		var start, end int64
		if _, err := fmt.Sscanf(win, "q%d\t[%d, %d", &q, &start, &end); err != nil {
			t.Fatalf("malformed row for window %q", win)
		}
		i := sort.Search(len(sessions), func(i int) bool { return sessions[i].End >= end })
		if !known[win] && (q != 1 || i == len(sessions) || sessions[i].Start > start) {
			t.Errorf("window %s) is no window of the oracle", win)
		}
	}
}

// TestSessionExtendedOutOfOrder: a late tuple that extends a session moves
// the session's end edge. These five tuples — 373 extends the session
// [0, 672) after 755 opened the next — used to end the run with exit 2
// ("window boundary inside populated slice").
func TestSessionExtendedOutOfOrder(t *testing.T) {
	got := runScotty(t, []string{"-window", "session", "-gap", "300"}, "0,1\n372,2\n755,3\n373,4\n270,5\n")
	if want := "[0, 673)\t n=4\t 12\n[755, 1055)\t n=1\t 3\n"; got != want {
		t.Errorf("rows %q, want %q", got, want)
	}
}

// TestWindowsBadSpecsExitNonZero covers the -windows parser's error paths.
func TestWindowsBadSpecsExitNonZero(t *testing.T) {
	for _, spec := range []string{"sliding", "session", "tumbling:0", "sliding:1000:-5", "heptagonal:9", "tumbling:1000:2:3", " , "} {
		var out, errOut strings.Builder
		if code := run(context.Background(), []string{"-windows", spec, "-demo", "10"}, strings.NewReader(""), &out, &errOut); code == 0 {
			t.Fatalf("-windows %q should exit non-zero", spec)
		}
	}
}

// TestWindowsCheckpointRestoreResumesFleet is the fleet shape of the restart
// contract: the snapshot carries the whole sharing plan (logical ids, dedup
// subscriptions, rebase offset), so a second run resumes every member and
// keeps their ids stable.
func TestWindowsCheckpointRestoreResumesFleet(t *testing.T) {
	const t0 = int64(1722470400000) // 2024-08-01 00:00:00 UTC, ms
	dir := t.TempDir()
	args := []string{"-windows", "tumbling:1000,sliding:2000:1000,tumbling:1000", "-agg", "sum", "-checkpoint-dir", dir}
	feed := func(offsets ...int64) string {
		var b strings.Builder
		for _, off := range offsets {
			fmt.Fprintf(&b, "%d,1\n", t0+off)
		}
		return b.String()
	}

	var out1, err1 strings.Builder
	if code := run(context.Background(), args, strings.NewReader(feed(0, 500, 1500, 2500)), &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d: %s", code, err1.String())
	}
	if want := fmt.Sprintf("q0\t[%d, %d)", t0, t0+1000); !strings.Contains(out1.String(), want) {
		t.Fatalf("first run missing window %s:\n%s", want, out1.String())
	}
	if !strings.Contains(err1.String(), "checkpoint: wrote") {
		t.Fatalf("first run wrote no checkpoint: %s", err1.String())
	}

	var out2, err2 strings.Builder
	if code := run(context.Background(), args, strings.NewReader(feed(3500, 4500, 9000)), &out2, &err2); code != 0 {
		t.Fatalf("second run exited %d: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "checkpoint: restored state from") {
		t.Fatalf("second run did not restore: %s", err2.String())
	}
	// Continuation windows from every member, still under their original ids:
	// the tumbling pair (q0 and its dedup twin q2) and the sliding member q1.
	for _, want := range []string{
		fmt.Sprintf("q0\t[%d, %d)", t0+4000, t0+5000),
		fmt.Sprintf("q2\t[%d, %d)", t0+4000, t0+5000),
		fmt.Sprintf("q1\t[%d, %d)", t0+3000, t0+5000),
	} {
		if !strings.Contains(out2.String(), want) {
			t.Fatalf("restored run missing continuation row %s:\n%s", want, out2.String())
		}
	}
}

// TestCancelDrainsAndWritesCheckpoint drives run() the way a SIGINT does:
// cancel the context mid-stream (stdin still open, scanner blocked) and
// require a clean exit that flushed pending windows and wrote final.sck.
func TestCancelDrainsAndWritesCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	dir := t.TempDir()
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-window", "tumbling", "-length", "1000", "-agg", "sum", "-checkpoint-dir", dir}, pr, &out, &errOut)
	}()

	// Stream 10s of events; the 2001ms watermark lag means rows for the
	// early windows appear (and are flushed) while the feed is running.
	for ts := int64(0); ts <= 10_000; ts += 250 {
		if _, err := fmt.Fprintf(pw, "%d,1\n", ts); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "[0, 1000)") {
		if time.Now().After(deadline) {
			t.Fatalf("no window rows before cancel; stdout %q stderr %q", out.String(), errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel() // the signal: stdin is still open, the scanner still blocked
	var code int
	select {
	case code = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if code != 0 {
		t.Fatalf("canceled run exited %d: %s", code, errOut.String())
	}
	// The drain must have emitted the windows the watermark had not reached
	// yet — the last full window ends at 10000 and only a MaxTime flush
	// closes it this early.
	if !strings.Contains(out.String(), "[9000, 10000)") {
		t.Fatalf("pending windows not drained on cancel:\n%s", out.String())
	}
	checkRows(t, out.String())
	if !strings.Contains(errOut.String(), "checkpoint: wrote") {
		t.Fatalf("no final checkpoint logged: %s", errOut.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "final.sck")); err != nil {
		t.Fatalf("final.sck missing: %v", err)
	}
}

// TestCancelEndsWatermarkGap: one timestamp far ahead of the stream makes a
// watermark due for every period up to it, ~10^11 of them. Canceled while the
// scanner walks that gap, a run still returns at once, exits 0, and prints
// the first tuple's window; the tuple that opened the gap is not processed.
func TestCancelEndsWatermarkGap(t *testing.T) {
	for _, tc := range []struct {
		args []string
		row  string
	}{
		{[]string{"-window", "session", "-gap", "1000"}, "[0, 1000)\t n=1\t 1\n"},
		{[]string{"-window", "tumbling", "-length", "5000"}, "[0, 5000)\t n=1\t 1\n"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var out, errOut syncBuffer
		done := make(chan int, 1)
		go func() { done <- run(ctx, tc.args, strings.NewReader("0,1\n90000000000000,3\n"), &out, &errOut) }()
		time.Sleep(100 * time.Millisecond)
		cancel()
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("%v: canceled run exited %d: %s", tc.args, code, errOut.String())
			}
		case <-time.After(time.Second):
			t.Fatalf("%v: run still walking the gap 1 s after cancel", tc.args)
		}
		if out.String() != tc.row {
			t.Fatalf("%v: stdout %q, want %q", tc.args, out.String(), tc.row)
		}
	}
}

// TestCheckpointRestoreResumesRun pins the restart contract on the one
// final.sck path, for each operator behind it: a run canceled mid-stream (the
// SIGINT path) seals its state, a second run over the same checkpoint dir
// restores it instead of starting cold, and the two together are the
// uninterrupted run — per window, the last row printed is the same.
// Epoch-scale timestamps make the internal rebase offset non-zero, so this
// also pins that the offset is persisted with the snapshot: a resumed run
// that recomputed it from its own (later) first event would print every
// window bound shifted by the difference.
func TestCheckpointRestoreResumesRun(t *testing.T) {
	const t0 = int64(1722470400000) // 2024-08-01 00:00:00 UTC, ms
	// Two keys, a tuple every 250 ms for 12 s; the unkeyed rows ignore the
	// key column. The first run gets [0, 6250]: its last line is the first to
	// push the watermark to 4000, so the [3000, 4000) row on stdout proves
	// the whole first half was ingested before the cancel.
	feed := func(from, to int64) string {
		var b strings.Builder
		for off := from; off <= to; off += 250 {
			fmt.Fprintf(&b, "%d,%d,%d\n", t0+off, off/250%5+1, off/250%2+1)
		}
		return b.String()
	}
	for _, tc := range []struct {
		name    string
		args    []string
		flushed string // a row the first run's last line triggers
		resumed string // a continuation row only a restored run can produce
	}{
		{"window", []string{"-window", "tumbling", "-length", "1000", "-agg", "sum"},
			fmt.Sprintf("[%d, %d)", t0+3000, t0+4000), fmt.Sprintf("[%d, %d)\t n=4", t0+6000, t0+7000)},
		{"keyed-window", []string{"-keyed", "-window", "tumbling", "-length", "1000", "-agg", "sum"},
			fmt.Sprintf("k2\t[%d, %d)", t0+3000, t0+4000), fmt.Sprintf("k1\t[%d, %d)\t n=2", t0+6000, t0+7000)},
		{"keyed-windows", []string{"-keyed", "-windows", "tumbling:1000,sliding:2000:1000", "-agg", "max"},
			fmt.Sprintf("k2\tq0\t[%d, %d)", t0+3000, t0+4000), fmt.Sprintf("k1\tq1\t[%d, %d)\t n=4", t0+5000, t0+7000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := runScotty(t, tc.args, feed(0, 12_000))
			args := append([]string{"-checkpoint-dir", t.TempDir()}, tc.args...)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pr, pw := io.Pipe()
			defer pw.Close()
			var out1, err1 syncBuffer
			done := make(chan int, 1)
			go func() { done <- run(ctx, args, pr, &out1, &err1) }()
			if _, err := io.WriteString(pw, feed(0, 6250)); err != nil {
				t.Fatalf("write: %v", err)
			}
			for deadline := time.Now().Add(10 * time.Second); !strings.Contains(out1.String(), tc.flushed); {
				if time.Now().After(deadline) {
					t.Fatalf("first run never printed %s; stdout %q stderr %q", tc.flushed, out1.String(), err1.String())
				}
				time.Sleep(5 * time.Millisecond)
			}
			cancel() // stdin still open, the scanner still blocked
			if code := <-done; code != 0 {
				t.Fatalf("canceled run exited %d: %s", code, err1.String())
			}
			if !strings.Contains(err1.String(), "checkpoint: wrote") {
				t.Fatalf("first run wrote no checkpoint: %s", err1.String())
			}

			var out2, err2 strings.Builder
			if code := run(context.Background(), args, strings.NewReader(feed(6500, 12_000)), &out2, &err2); code != 0 {
				t.Fatalf("second run exited %d: %s", code, err2.String())
			}
			if !strings.Contains(err2.String(), "checkpoint: restored state from") {
				t.Fatalf("second run did not restore: %s", err2.String())
			}
			if !strings.Contains(out2.String(), tc.resumed) {
				t.Fatalf("restored run missing continuation row %s (state or rebase offset not resumed?):\n%s", tc.resumed, out2.String())
			}
			got, want := lastRows(out1.String()+out2.String()), lastRows(whole)
			for win, row := range want {
				if got[win] != row {
					t.Errorf("window %s: canceled+restored runs end on %q, uninterrupted run on %q", win, got[win], row)
				}
			}
			if len(got) != len(want) {
				t.Errorf("canceled+restored runs printed %d distinct windows, uninterrupted run %d", len(got), len(want))
			}
		})
	}
}

// lastRows reduces stdout to the final word on each window: rows keyed by
// everything up to the bounds (k<key>, q<id>, [start, end)), later rows —
// updates, or a restored run completing a window its predecessor could only
// drain provisionally — superseding earlier ones.
func lastRows(out string) map[string]string {
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		win, rest, _ := strings.Cut(line, ")\t")
		rows[win] = strings.TrimSuffix(rest, "  (update)")
	}
	return rows
}

// keyedLine matches one keyed result row: "k<key>\t[start, end)\t n=N\t value".
var keyedLine = regexp.MustCompile(`^k\d+\t\[-?\d+, -?\d+\)\t n=\d+\t \S`)

// TestKeyedModeEmitsPerKeyRows pins the -keyed flag surface: demo streams
// partition by the generator's 16 keys, every key produces its own rows, and
// a -mem-budget bounded run (spilling through -spill-dir) emits the exact
// same rows as an unbounded one.
func TestKeyedModeEmitsPerKeyRows(t *testing.T) {
	base := []string{"-keyed", "-window", "sliding", "-length", "10000", "-slide", "2000", "-demo", "20000"}
	out := runScotty(t, base, "")
	keys := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !keyedLine.MatchString(line) {
			t.Fatalf("malformed keyed row %q", line)
		}
		keys[line[:strings.Index(line, "\t")]] = true
	}
	if len(keys) != 16 {
		t.Fatalf("expected rows for all 16 demo keys, got %d: %v", len(keys), keys)
	}

	spillDir := filepath.Join(t.TempDir(), "spill")
	bounded := runScotty(t, append([]string{"-mem-budget", "8192", "-spill-dir", spillDir}, base...), "")
	if bounded != out {
		t.Errorf("budgeted run output differs from unbounded run")
	}
}

// TestKeyedCSVKeyColumn checks the third CSV column routes rows to keys.
func TestKeyedCSVKeyColumn(t *testing.T) {
	in := "0,1,3\n500,2,4\n1200,4,3\n"
	out := runScotty(t, []string{"-keyed", "-window", "tumbling", "-length", "1000", "-lateness", "0", "-agg", "sum"}, in)
	for _, want := range []string{"k3\t[0, 1000)\t n=1\t 1", "k4\t[0, 1000)\t n=1\t 2", "k3\t[1000, 2000)\t n=1\t 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestKeyedLateTupleOfSilentKey: key 1 speaks at 100 and falls silent while
// key 2 carries the watermark past 2000. Key 1's next tuple, at 700, leads
// key 1's own sub-stream but trails the stream's watermark, so it corrects the
// row already printed for k1's [0, 1000) — on the shared-ring representation
// and on the per-key one (-mem-budget selects it), which used to fold the
// tuple without a row because the key's operator judged it in order.
func TestKeyedLateTupleOfSilentKey(t *testing.T) {
	in := "100,1,1\n5000,1,2\n700,10,1\n"
	for _, extra := range [][]string{nil, {"-mem-budget", "1000000000", "-spill-dir", t.TempDir()}} {
		args := append([]string{"-keyed", "-window", "tumbling", "-length", "1000", "-agg", "sum"}, extra...)
		out := runScotty(t, args, in)
		want := "k1\t[0, 1000)\t n=1\t 1\nk1\t[0, 1000)\t n=2\t 11  (update)\n"
		if !strings.HasPrefix(out, want) {
			t.Errorf("scotty %v:\n got:\n%s\nwant it to open with:\n%s", args, out, want)
		}
	}
}

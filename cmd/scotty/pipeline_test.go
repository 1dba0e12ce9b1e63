package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenRows pins stdout byte for byte across the collapse of the keyed
// and unkeyed pipelines into one. The expected rows were captured from the
// last commit that still had both (45a2098): testdata/golden/*.out from
// testdata/golden/input.csv (two keys, a late tuple on each so every shape
// carries an "  (update)" row), the demo runs as a SHA-256 of stdout. Between
// them they cover the three row shapes — plain, q<id>-prefixed, k<key>-
// prefixed with and without q<id> — on all three operators.
func TestGoldenRows(t *testing.T) {
	input, err := os.ReadFile(filepath.Join("testdata", "golden", "input.csv"))
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		want string
		args []string
	}{
		{"single.out", []string{"-window", "sliding", "-length", "2000", "-slide", "1000", "-agg", "sum"}},
		{"fleet.out", []string{"-windows", "tumbling:1000,sliding:2000:1000", "-agg", "mean"}},
		{"keyed.out", []string{"-keyed", "-window", "tumbling", "-length", "1000", "-agg", "sum"}},
		{"keyed-fleet.out", []string{"-keyed", "-windows", "tumbling:1000,session:800", "-agg", "max"}},
	}
	for _, tc := range files {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.want))
		if err != nil {
			t.Fatal(err)
		}
		if got := runScotty(t, tc.args, string(input)); got != string(want) {
			t.Errorf("scotty %v diverged from %s:\n got:\n%s\nwant:\n%s", tc.args, tc.want, got, want)
		}
		if !strings.Contains(string(want), "  (update)") {
			t.Errorf("%s carries no update row; the golden input lost its late tuples", tc.want)
		}
	}

	demos := []struct {
		sha  string
		args string
	}{
		{"a9caa395e7d0f1fe2c956f634e8100baeee9c3817be43229a228d718acf240fb", "-window sliding -length 4000 -slide 1000 -agg median -demo 20000 -ooo 0.2"},
		{"4716e833c74c3f6945d0e091103f69ac07bdbda447f97fd61bae5e8f2ac5a938", "-window count -length 1000 -agg m4 -demo 20000 -ooo 0.1"},
		{"0da015d748a38d2eb79ca22074573f74c4f196cb713f46e68459fa60d3ec5f49", "-keyed -window sliding -length 4000 -slide 1000 -agg p90 -demo 20000 -ooo 0.2"},
		{"2694bf7ae36dbbb45bd49524eed47b069d8d37bcb9f70028b9064b9ffd0731c8", "-windows sliding:4000:1000,tumbling:2000,session:300 -agg mean -demo 20000 -ooo 0.2"},
	}
	for _, tc := range demos {
		out := runScotty(t, strings.Fields(tc.args), "")
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.sha {
			t.Errorf("scotty %s: stdout hash %s, want %s; first rows:\n%.400s", tc.args, got, tc.sha, out)
		}
	}
}

// TestOneKeyKeyedEqualsUnkeyed is the paper's §5.3 reading of a key as
// nothing but the boundary a stream is split on: a stream with one key,
// windowed per key, prints exactly the unkeyed rows behind "k0\t" — same
// rows, same order, for a single window and for a -windows set.
func TestOneKeyKeyedEqualsUnkeyed(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*50, i%7)
	}
	b.WriteString("16000,100\n") // behind the watermark, inside the allowed lateness: update rows
	for _, args := range [][]string{
		{"-window", "sliding", "-length", "2000", "-slide", "500", "-agg", "sum"},
		{"-windows", "tumbling:1000,sliding:2000:1000,session:30", "-agg", "mean"},
	} {
		want := runScotty(t, args, b.String())
		if !strings.Contains(want, "  (update)") {
			t.Fatalf("scotty %v: no update row in the unkeyed run:\n%s", args, want)
		}
		keyed := runScotty(t, append([]string{"-keyed"}, args...), b.String())
		var got strings.Builder
		for _, line := range strings.SplitAfter(keyed, "\n") {
			if line != "" && !strings.HasPrefix(line, "k0\t") {
				t.Fatalf("scotty -keyed %v: row %q lacks the k0 prefix", args, line)
			}
			got.WriteString(strings.TrimPrefix(line, "k0\t"))
		}
		if got.String() != want {
			t.Errorf("scotty -keyed %v minus k0 diverged from the unkeyed run:\n got:\n%s\nwant:\n%s", args, got.String(), want)
		}
	}
}

// TestOverlongLineFailsTheRun: bufio.Scanner stops at a line past its 64 KiB
// token limit. That used to end the input silently — exit 0 with every later
// tuple lost. The run must still drain what it ingested, then say what
// happened and exit 1.
func TestOverlongLineFailsTheRun(t *testing.T) {
	in := "0,1\n100,2\n200," + strings.Repeat("7", 70_000) + "\n6000,3\n12000,4\n"
	for _, mode := range [][]string{nil, {"-keyed"}} {
		args := append(mode, "-window", "tumbling", "-length", "1000", "-lateness", "0")
		var out, errOut strings.Builder
		code := run(context.Background(), args, strings.NewReader(in), &out, &errOut)
		if code != 1 {
			t.Errorf("scotty %v exited %d on an over-long line, want 1 (stderr: %s)", args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "input: ") || !strings.Contains(errOut.String(), "token too long") {
			t.Errorf("scotty %v: scanner error not reported on stderr: %q", args, errOut.String())
		}
		if !strings.Contains(out.String(), "[0, 1000)\t n=2\t 3\n") {
			t.Errorf("scotty %v: tuples before the over-long line were not drained:\n%s", args, out.String())
		}
		if strings.Contains(out.String(), "[6000, 7000)") {
			t.Errorf("scotty %v: tuples after the over-long line cannot have been read:\n%s", args, out.String())
		}
	}
}

// TestCSVColumns pins the one feed's line grammar, identical in both modes:
// ts,value[,key] — the key column is parsed even when -keyed is off (and then
// ignored), a non-integer key or a fourth column makes the line malformed.
func TestCSVColumns(t *testing.T) {
	in := "0,1,7\n100,2,x\n200,3,4,5\n300,4\n400\n"
	for _, tc := range []struct {
		mode []string
		want []string
	}{
		{nil, []string{"[0, 1000)\t n=2\t 5\n"}},
		{[]string{"-keyed"}, []string{"k7\t[0, 1000)\t n=1\t 1\n", "k0\t[0, 1000)\t n=1\t 4\n"}},
	} {
		args := append(tc.mode, "-window", "tumbling", "-length", "1000")
		var out, errOut strings.Builder
		if code := run(context.Background(), args, strings.NewReader(in), &out, &errOut); code != 0 {
			t.Fatalf("scotty %v exited %d: %s", args, code, errOut.String())
		}
		for _, bad := range []string{`"100,2,x"`, `"200,3,4,5"`, `"400"`} {
			if !strings.Contains(errOut.String(), "skipping malformed line: "+bad) {
				t.Errorf("scotty %v: line %s not reported malformed:\n%s", args, bad, errOut.String())
			}
		}
		if n := strings.Count(errOut.String(), "skipping malformed line"); n != 3 {
			t.Errorf("scotty %v: %d malformed-line reports, want 3:\n%s", args, n, errOut.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("scotty %v: output missing %q:\n%s", args, want, out.String())
			}
		}
	}
}

// TestBadFlagValuesExitTwo: a flag value scotty cannot run with is a usage
// error — exit 2 and one line on stderr, never a panic out of the window
// constructors. (-slide <= 0 is not one of them: it means half the length.)
func TestBadFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-agg", "nope", "-demo", "10"},
		{"-window", "heptagonal", "-demo", "10"},
		{"-store", "heap", "-demo", "10"},
		{"-backpressure", "bogus", "-demo", "10"},
		{"-length", "0", "-demo", "10"},
		{"-length", "-5", "-window", "count", "-demo", "10"},
		{"-window", "session", "-gap", "0", "-demo", "10"},
		{"-keyed", "-window", "sliding", "-length", "0", "-demo", "10"},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("scotty %v exited %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 {
			t.Errorf("scotty %v: want a one-line message, got %q", args, msg)
		}
	}
	// -length is not read by session windows, -gap by no other kind, and a
	// non-positive -slide keeps its meaning.
	for _, args := range [][]string{
		{"-window", "session", "-length", "0", "-demo", "100"},
		{"-window", "tumbling", "-gap", "0", "-demo", "100"},
		{"-window", "sliding", "-length", "1000", "-slide", "-1", "-demo", "100"},
	} {
		runScotty(t, args, "")
	}
}

// TestRemainingRejectionsAreMeaningless is the whole runtime rejection matrix
// of the CLI. Each row names a resource that nothing in the requested run
// would ever use, or an input the chosen store cannot represent — the
// combination has no meaning; it is not a feature waiting to be written.
// (-keyed with -breaker, and -keyed with a non-block -backpressure, used to be
// on this list only because the guarded sink and the ingest edge existed in
// the unkeyed pipeline alone; see robustness_test.go for their tests.)
func TestRemainingRejectionsAreMeaningless(t *testing.T) {
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"spilling evicts whole keys; an unkeyed run has no key to evict, its state is one slice ring",
			[]string{"-mem-budget", "1024", "-demo", "10"}},
		{"the spill directory is only ever written when a budget forces a spill",
			[]string{"-keyed", "-spill-dir", t.TempDir(), "-demo", "10"}},
		{"the dead-letter queue only receives what the breaker's guard rejects; without -breaker rows go straight to stdout",
			[]string{"-dlq-dir", t.TempDir(), "-demo", "10"}},
		{"DABA rings are FIFO over closed slices: an out-of-order insert has no position in them",
			[]string{"-store", "daba", "-ooo", "0.2", "-demo", "10"}},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), tc.args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("scotty %v exited %d, want 2 — %s (stderr: %s)", tc.args, code, tc.why, errOut.String())
		}
	}
}

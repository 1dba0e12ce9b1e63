package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"scotty/internal/stream"
)

// TestAppendIntMatchesStrconv: the decimal writer appends what strconv does,
// at every digit count's edges and behind a prefix, with room to spare in the
// buffer and without.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for p := int64(10); ; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
		if p > math.MaxInt64/10 {
			break
		}
	}
	for _, v := range vals {
		for _, b := range [][]byte{nil, []byte("q7\t["), make([]byte, 3, 64)} {
			want := string(strconv.AppendInt(append([]byte(nil), b...), v, 10))
			if got := string(appendInt(append([]byte(nil), b...), v)); got != want {
				t.Errorf("appendInt(%q, %d) = %q, want %q", b, v, got, want)
			}
			if got := string(appendInt(b, v)); got != want {
				t.Errorf("appendInt(%q with cap %d, %d) = %q, want %q", b, cap(b), v, got, want)
			}
		}
	}
}

// FuzzAppendIntMatchesStrconv: whatever the integer and whatever the buffer
// already holds, the decimal writer appends what strconv.AppendInt does.
func FuzzAppendIntMatchesStrconv(f *testing.F) {
	for _, v := range []int64{0, 9, 10, 99, 100, -1, 1e18, math.MaxInt64, math.MinInt64} {
		f.Add(v, "[")
	}
	f.Fuzz(func(t *testing.T, v int64, prefix string) {
		want := strconv.AppendInt([]byte(prefix), v, 10)
		if got := appendInt([]byte(prefix), v); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%q, %d) = %q, want %q", prefix, v, got, want)
		}
	})
}

// writeCounter counts the writes and bytes it is handed.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// readCounter counts the reads that return data.
type readCounter struct {
	r     io.Reader
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		r.reads++
	}
	return n, err
}

// TestStdoutWritesPerBlock counts, without a clock, how often the rows of the
// csv-ooo-fleet64 stream reach stdout: at the end of each block read and each
// time outBufSize bytes have piled up, plus once at the end. A write per
// watermark would be 1 318 writes for this stream.
func TestStdoutWritesPerBlock(t *testing.T) {
	in := &readCounter{r: bytes.NewReader(fleet64CSV(20_000))}
	var out writeCounter
	if code := run(context.Background(), fleet64Args, in, &out, io.Discard); code != 0 {
		t.Fatalf("scotty exited %d", code)
	}
	bound := in.reads + out.bytes/outBufSize + 1
	t.Logf("%d writes for %d bytes of rows from %d reads (bound %d)", out.writes, out.bytes, in.reads, bound)
	if out.writes > bound || out.writes > 350 {
		t.Errorf("%d writes for %d bytes of rows from %d reads, want at most %d and at most 350", out.writes, out.bytes, in.reads, bound)
	}
}

// TestUpdateRowsPerWatermark: a late tuple marks the windows it changes and
// the next watermark prints one update row per marked window, not one per
// late tuple. On the csv-ooo-fleet64 stream that is 45 106 update rows where
// one per late tuple and window was 68 620. On disorderedCSV — one sliding
// query, the same per key, and a count window, whose late tuples shift every
// announced window after them — no window gets more update rows than there
// are watermark intervals with a late tuple, and the sliding query gets no
// more than the distinct (window, interval) pairs its late tuples land in.
func TestUpdateRowsPerWatermark(t *testing.T) {
	rows, updates := countUpdates(runScotty(t, fleet64Args, string(fleet64CSV(20_000))))
	t.Logf("fleet64: %d rows, %d updates", rows, updates)
	if rows > 110_000 || updates > 46_000 {
		t.Errorf("fleet64: %d rows and %d update rows, want at most 110 000 and 46 000", rows, updates)
	}

	in := disorderedCSV(60_000)
	intervals, pairs, touches := lateWindows(t, in, 10_000, 1000, 2000)
	for _, tc := range []struct {
		name    string
		args    []string
		sliding bool
	}{
		{"single", slidingSum, true},
		{"keyed", append([]string{"-keyed"}, slidingSum...), true},
		{"count", []string{"-window", "count", "-length", "1000", "-agg", "sum"}, false},
	} {
		perWindow := map[string]int{}
		_, updates := countUpdates(runScotty(t, tc.args, string(in)), func(window string) { perWindow[window]++ })
		most := 0
		for _, n := range perWindow {
			most = max(most, n)
		}
		t.Logf("%s: %d update rows over %d windows, at most %d for one; %d intervals with a late tuple", tc.name, updates, len(perWindow), most, intervals)
		if updates == 0 || most > intervals {
			t.Errorf("%s: %d update rows, %d for one window, want some and at most %d (the intervals with a late tuple)", tc.name, updates, most, intervals)
		}
		if tc.sliding && updates > pairs {
			t.Errorf("%s: %d update rows, want at most the %d (window, interval) pairs late tuples land in (%d tuple-window pairs)", tc.name, updates, pairs, touches)
		}
	}
}

// countUpdates counts the rows of a run's stdout and its update rows, handing
// each update row's window — the row up to its tuple count — to each.
func countUpdates(out string, each ...func(window string)) (rows, updates int) {
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		rows++
		if strings.HasSuffix(line, "  (update)") {
			updates++
			for _, f := range each {
				f(line[:strings.Index(line, "\t n=")])
			}
		}
	}
	return rows, updates
}

// lateWindows replays scotty's watermark schedule over a two-column CSV for a
// sliding window of the given length and slide: the watermark intervals in
// which some tuple arrives at or behind the watermark, the distinct (window,
// interval) pairs such tuples land in among the windows already announced,
// and the (tuple, window) pairs — what one update row per late tuple prints.
func lateWindows(t *testing.T, in []byte, length, slide, lateness int64) (intervals, pairs, touches int) {
	t.Helper()
	feeder := stream.NewFeeder[stream.Tuple](stream.Watermarker{Period: 1000, Lag: 2001})
	wm, interval, lastLate := stream.MinTime, 0, -1
	seen := map[[2]int64]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(in), "\n"), "\n") {
		ts, err := strconv.ParseInt(line[:strings.IndexByte(line, ',')], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ts > feeder.Newest() && feeder.Advance(ts) {
			for w, ok := feeder.Due(); ok; w, ok = feeder.Due() {
				wm, interval = w, interval+1
			}
		}
		if wm == stream.MinTime || ts > wm || ts <= wm-lateness {
			continue
		}
		if interval != lastLate {
			intervals, lastLate = intervals+1, interval
		}
		for start := ts - ts%slide; start >= 0 && start+length > ts; start -= slide {
			if start+length-1 <= wm {
				touches++
				seen[[2]int64{start, int64(interval)}] = true
			}
		}
	}
	return intervals, len(seen), touches
}

// stallingReader returns its first block, then blocks until release is
// closed, then ends.
type stallingReader struct {
	first   []byte
	release chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	if len(r.first) > 0 {
		n := copy(p, r.first)
		r.first = r.first[n:]
		return n, nil
	}
	<-r.release
	return 0, io.EOF
}

// notifyWriter hands each write's bytes to a channel.
type notifyWriter struct{ writes chan string }

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.writes <- string(p)
	return len(p), nil
}

// TestRowsLeaveWithTheirBlock: a row waits for at most one block. The input
// hands over one block and then stalls; the rows its watermarks released must
// reach stdout while the input is still stalled — through the block path and
// through a non-block policy's ingest edge, where every watermark ends a block.
func TestRowsLeaveWithTheirBlock(t *testing.T) {
	var block strings.Builder
	for ts := 0; ts <= 6000; ts += 100 {
		block.WriteString(strconv.Itoa(ts) + ",1\n")
	}
	for _, policy := range []string{"block", "drop-newest"} {
		in := &stallingReader{first: []byte(block.String()), release: make(chan struct{})}
		out := &notifyWriter{writes: make(chan string)}
		done := make(chan int)
		go func() {
			done <- run(context.Background(), []string{"-window", "tumbling", "-length", "1000", "-backpressure", policy}, in, out, io.Discard)
		}()
		// The block's last watermark, 3000, closes [2000, 3000).
		const want = "[0, 1000)\t n=10\t 10\n[1000, 2000)\t n=10\t 10\n[2000, 3000)\t n=10\t 10\n"
		var got string
		for timeout := time.After(30 * time.Second); len(got) < len(want); {
			select {
			case rows := <-out.writes:
				got += rows
			case <-timeout:
				t.Fatalf("%s: %q reached stdout while the input stalled after its first block, want %q", policy, got, want)
			}
		}
		if got != want {
			t.Errorf("%s: %q reached stdout while the input stalled after its first block, want %q", policy, got, want)
		}
		close(in.release)
		go func() {
			for range out.writes {
			}
		}()
		if code := <-done; code != 0 {
			t.Errorf("%s: scotty exited %d", policy, code)
		}
		close(out.writes)
	}
}

// The input side of the pipeline (docs/PERFORMANCE.md, "The ingest and
// emission path").
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scotty/internal/obs"
	"scotty/internal/stream"
)

// source pushes the input's events, in arrival order and a batch at a time,
// into emit until the input is exhausted or ctx is canceled, and returns what
// broke the input off early (nil for a clean end or a cancellation). emit may
// keep the batch only until it returns.
type source func(ctx context.Context, emit func([]event)) error

// demoBatch is how many generated events one demo batch carries: about what a
// block of CSV lines does.
const demoBatch = 256

// demoSource generates n events of the football profile, a fraction ooo of
// them delivered late.
func demoSource(n int, ooo float64) source {
	return func(ctx context.Context, emit func([]event)) error {
		events := stream.Apply(stream.Disorder{Fraction: ooo, MaxDelay: 2000, Seed: 7},
			stream.Generate(stream.Football(), n, 1))
		for len(events) > 0 && ctx.Err() == nil {
			k := min(len(events), demoBatch)
			emit(events[:k])
			events = events[k:]
		}
		return nil
	}
}

const (
	// blockSize is the most one read asks for. Input held inside scotty is
	// latency under load (bytes in flight ÷ throughput), so blocks stay as
	// small as bufio.Scanner's buffer was and at most one is read ahead.
	blockSize = 4096
	// maxLine is the longest line the input may carry, terminator included;
	// a longer one ends the input with bufio.ErrTooLong.
	maxLine = bufio.MaxScanTokenSize
	// malformedShown caps the malformed lines echoed to stderr; the rest are
	// only counted.
	malformedShown = 10
)

// readBlocks reads r to its end and sends it on blocks in pieces that end on
// a line boundary: whatever one read returned, cut behind its last newline,
// with the unterminated rest carried into the next piece. It returns what
// ended the input early: a read error, io.ErrNoProgress, or bufio.ErrTooLong
// for a line of maxLine bytes; whatever precedes a read error is still sent,
// its unterminated tail included. Canceling ctx abandons a blocked send.
//
// Two buffers alternate, so a block is valid until the receiver takes the
// next one: the channel is unbuffered, and by asking for block k+1 the
// receiver says it is done with block k.
func readBlocks(ctx context.Context, r io.Reader, blocks chan<- []byte) error {
	buf, next := make([]byte, blockSize), make([]byte, blockSize)
	n := 0 // buf[:n] is the unterminated tail of the reads so far
	empties := 0
	for {
		if n == len(buf) {
			if n >= maxLine {
				return bufio.ErrTooLong
			}
			buf = append(buf, make([]byte, min(n, maxLine-n))...)
		}
		m, err := r.Read(buf[n:min(len(buf), n+blockSize)])
		if m == 0 && err == nil {
			if empties++; empties > 100 {
				return io.ErrNoProgress
			}
			continue
		}
		empties = 0
		n += m
		end := 0
		if err != nil {
			end = n // the input is over: what is left is its last line
		} else if i := bytes.LastIndexByte(buf[n-m:n], '\n'); i >= 0 {
			end = n - m + i + 1
		}
		if end > 0 {
			select {
			case blocks <- buf[:end]:
			case <-ctx.Done():
				return nil
			}
			if len(next) < len(buf) {
				next = make([]byte, len(buf))
			}
			n = copy(next, buf[end:n])
			buf, next = next, buf
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// csvSource parses "timestamp-ms,value[,key]" lines (key defaults to 0) as
// they arrive: each block read from stdin is parsed in place into one batch,
// which is watermarked and processed before the next block is looked at, so a
// live -metrics endpoint observes the run in progress. Timestamps are rebased
// before they reach the watermarker so epoch-scale inputs stay cheap.
// Malformed lines are counted in malformed, the first malformedShown echoed,
// and skipped. A read failure (a read error, a line of maxLine bytes) ends the
// input and is returned, so the run can drain what it has and exit non-zero
// instead of passing a truncated stream off as the whole one.
func csvSource(stdin io.Reader, stderr io.Writer, rb *rebaser, malformed *obs.Counter) source {
	return func(ctx context.Context, emit func([]event)) error {
		// Read blocks with no way to interrupt it, so it runs in its own
		// goroutine; the parsing loop below stays responsive to ctx. After
		// cancellation the goroutine stays in Read until the input delivers
		// or closes — for a real process that is at exit anyway.
		blocks := make(chan []byte)
		var readErr error // written before close(blocks), read after it
		go func() {
			defer close(blocks)
			readErr = readBlocks(ctx, stdin, blocks)
		}()
		defer func() {
			if n := malformed.Value(); n > 0 {
				fmt.Fprintf(stderr, "input: skipped %d malformed lines\n", n)
			}
		}()
		var events []event
		seq := int64(0)
		for {
			var block []byte
			var ok bool
			select {
			case <-ctx.Done():
				return nil
			case block, ok = <-blocks:
			}
			if !ok {
				return readErr
			}
			events = events[:0]
			for len(block) > 0 {
				line := block
				if i := bytes.IndexByte(block, '\n'); i >= 0 {
					line, block = block[:i], block[i+1:]
				} else {
					block = nil
				}
				line = bytes.TrimSpace(line)
				if len(line) == 0 || line[0] == '#' {
					continue
				}
				ts, v, key, ok := parseLine(line)
				if !ok {
					if malformed.Inc(); malformed.Value() <= malformedShown {
						fmt.Fprintf(stderr, "skipping malformed line: %q\n", line)
					}
					continue
				}
				events = append(events, event{Time: rb.shift(ts), Seq: seq, Value: stream.Tuple{Key: key, V: v}})
				seq++
			}
			if len(events) > 0 {
				emit(events)
			}
		}
	}
}

// pow10 holds the powers of ten parseLine divides by; each is an exact
// float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseLine parses one trimmed, non-empty input line, "ts,value[,key]".
//
// The fast path takes what the input almost always is — optionally signed
// decimal digits, the value optionally with a fraction — and is exact by
// construction: a timestamp of at most 18 digits and a key of at most 9 cannot
// overflow, and a value of at most 15 digits has a mantissa below 2^53 and a
// fraction scale of at most 10^15, both exact float64s, whose one IEEE
// division is the correctly rounded result (the argument of strconv's own
// exact path). Everything else — spaces inside the line, exponents, hex
// floats, NaN, Inf, longer digit strings, wrong field counts — goes to
// parseLineSlow, so which lines are accepted and what they parse to is what
// strconv says.
//
//slicelint:hotpath
func parseLine(line []byte) (ts int64, v float64, key int32, ok bool) {
	ts, i := scanInt(line, 0, 18)
	if i == 0 || i == len(line) || line[i] != ',' {
		return parseLineSlow(line)
	}
	i++
	neg := false
	if i < len(line) && (line[i] == '-' || line[i] == '+') {
		neg = line[i] == '-'
		i++
	}
	var mant int64
	start := i
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		mant = mant*10 + int64(line[i]-'0')
	}
	digits, frac := i-start, 0
	if i < len(line) && line[i] == '.' {
		i++
		start = i
		for ; i < len(line) && line[i]-'0' <= 9; i++ {
			mant = mant*10 + int64(line[i]-'0')
		}
		frac = i - start
		digits += frac
	}
	if digits == 0 || digits >= len(pow10) {
		return parseLineSlow(line)
	}
	v = float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	if i == len(line) {
		return ts, v, 0, true
	}
	if line[i] != ',' {
		return parseLineSlow(line)
	}
	k, j := scanInt(line, i+1, 9)
	if j == i+1 || j != len(line) {
		return parseLineSlow(line)
	}
	return ts, v, int32(k), true
}

// scanInt reads an optionally signed decimal integer of at most maxDigits
// digits at b[i:] and returns it with the index behind it; an index of i says
// b[i:] does not start with one.
func scanInt(b []byte, i, maxDigits int) (int64, int) {
	j, neg := i, false
	if j < len(b) && (b[j] == '-' || b[j] == '+') {
		neg = b[j] == '-'
		j++
	}
	first := j
	var n int64
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		n = n*10 + int64(b[j]-'0')
	}
	if j == first || j-first > maxDigits {
		return 0, i
	}
	if neg {
		n = -n
	}
	return n, j
}

// parseLineSlow is the line grammar itself: two or three comma-separated
// fields, each trimmed, parsed by strconv.
//
//slicelint:coldpath only lines the fast path declines come here
func parseLineSlow(line []byte) (ts int64, v float64, key int32, ok bool) {
	parts := strings.Split(string(line), ",")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, 0, 0, false
	}
	ts, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	v, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	k := int64(0)
	var err3 error
	if len(parts) == 3 {
		k, err3 = strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 32)
	}
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return ts, v, int32(k), true
}

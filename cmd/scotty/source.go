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

// source turns the input into items on sc, in arrival order, until the input
// is exhausted or ctx is canceled, and returns what broke the input off early
// (nil for a clean end or a cancellation).
type source func(ctx context.Context, sc *scanner) error

// scanner is the one place where a tuple becomes an item. push rebases the
// tuple's time, writes it into the one reused batch behind the watermarks it
// makes due — stream.Feeder's schedule, at one comparison per in-order tuple
// — and hands the batch to send, cut behind every item that can make the
// operator emit (feed has why): each watermark, and each event older than the
// newest before it. A source flushes what is left at the end of every piece
// of input it was handed, so a batch is never held back waiting for more.
// send may keep a batch only until it returns.
type scanner struct {
	ctx    context.Context
	rb     *rebaser
	feeder *stream.Feeder[stream.Tuple]
	send   func([]item)
	items  []item
	seq    int64 // the next CSV line's sequence number
}

// push is a tuple's one step from input to item.
//
//slicelint:hotpath
func (sc *scanner) push(e event) {
	e.Time = sc.rb.shift(e.Time)
	older := false
	if newest := sc.feeder.Newest(); e.Time > newest {
		if sc.feeder.Advance(e.Time) {
			sc.watermarks()
		}
	} else {
		older = e.Time < newest
	}
	// Field by field into the batch's next slot: an item literal appended
	// whole is assembled on the stack and copied out, at a store-forwarding
	// stall per line.
	n := len(sc.items)
	if n == cap(sc.items) {
		sc.items = append(sc.items, item{})
	}
	sc.items = sc.items[:n+1]
	it := &sc.items[n]
	it.Kind, it.Watermark = stream.KindEvent, 0
	it.Event.Time, it.Event.Seq, it.Event.Value = e.Time, e.Seq, e.Value
	if older {
		sc.flush()
	}
}

// watermarks appends the watermarks that are due, each cut behind.
//
// One event far ahead of the stream makes a watermark due for every period up
// to it, so cancellation is checked per watermark once the walk has gone
// past the first: once ctx is done, what came before is sent and nothing
// after it is — the event that opened the gap included — so the drain covers
// only what was processed. An ordinary tuple makes at most one watermark due,
// so a cancellation that arrives mid-block cuts nothing and the block is
// processed whole. The schedule is not jumped ahead in one step: the operator
// triggers query-major within one watermark interval, and one watermark
// spanning several periods would reorder a multi-query run's rows.
//
//slicelint:coldpath runs once per watermark period of event time, not per tuple
func (sc *scanner) watermarks() {
	for walked := false; ; walked = true {
		wm, ok := sc.feeder.Due()
		if !ok {
			return
		}
		if walked && sc.ctx.Err() != nil {
			sc.flush()
			sc.send = func([]item) {}
			return
		}
		sc.items = append(sc.items, stream.WatermarkItem[stream.Tuple](wm))
		sc.flush()
	}
}

// flush hands the batch so far to send and starts the next one.
func (sc *scanner) flush() {
	if len(sc.items) > 0 {
		sc.send(sc.items)
		sc.items = sc.items[:0]
	}
}

// demoBatch is how many generated events one demo batch carries at most:
// about what a block of CSV lines does.
const demoBatch = 256

// demoSource generates n events of the football profile, a fraction ooo of
// them delivered late.
func demoSource(n int, ooo float64) source {
	return func(ctx context.Context, sc *scanner) error {
		events := stream.Apply(stream.Disorder{Fraction: ooo, MaxDelay: 2000, Seed: 7},
			stream.Generate(stream.Football(), n, 1))
		for i := 0; i < len(events) && ctx.Err() == nil; i += demoBatch {
			for _, e := range events[i:min(i+demoBatch, len(events))] {
				sc.push(e)
			}
			sc.flush()
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
// they arrive: each block read from stdin is scanned where it lies into the
// scanner's batch, which is watermarked and processed before the next block
// is looked at, so a live -metrics endpoint observes the run in progress.
// Malformed lines are counted in malformed, the first malformedShown echoed,
// and skipped. A read failure (a read error, a line of maxLine bytes) ends the
// input and is returned, so the run can drain what it has and exit non-zero
// instead of passing a truncated stream off as the whole one.
func csvSource(stdin io.Reader, stderr io.Writer, malformed *obs.Counter) source {
	return func(ctx context.Context, sc *scanner) error {
		// Read blocks with no way to interrupt it, so it runs in its own
		// goroutine; the scanning loop below stays responsive to ctx. After
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
		bad := func(line []byte) {
			if malformed.Inc(); malformed.Value() <= malformedShown {
				fmt.Fprintf(stderr, "skipping malformed line: %q\n", line)
			}
		}
		for {
			select {
			case <-ctx.Done():
				return nil
			case block, ok := <-blocks:
				if !ok {
					return readErr
				}
				sc.lines(block, bad)
			}
		}
	}
}

// lines pushes the tuple of every line of block, then flushes. A line that is
// exactly the fast grammar (scanFields) up to its newline is parsed where it
// lies, without finding its end first; any other line — blank, a comment,
// CRLF, spaces, anything scanFields declines — is cut at its newline, trimmed
// and given to parseLine, and to bad if it is malformed. What is accepted and
// what it parses to is therefore exactly parseLine's grammar.
//
//slicelint:hotpath
func (sc *scanner) lines(block []byte, bad func(line []byte)) {
	for p := 0; p < len(block); {
		ts, v, key, end, ok := scanFields(block, p)
		if ok && (end == len(block) || block[end] == '\n') {
			p = end + 1
		} else {
			line := block[p:]
			if i := bytes.IndexByte(line, '\n'); i >= 0 {
				line, p = line[:i], p+i+1
			} else {
				p = len(block)
			}
			if line = bytes.TrimSpace(line); len(line) == 0 || line[0] == '#' {
				continue
			}
			if ts, v, key, ok = parseLine(line); !ok {
				bad(line)
				continue
			}
		}
		sc.push(event{Time: ts, Seq: sc.seq, Value: stream.Tuple{Key: key, V: v}})
		sc.seq++
	}
	sc.flush()
}

// pow10 holds the powers of ten scanFields divides by; each is an exact
// float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseLine parses one trimmed, non-empty input line, "ts,value[,key]": the
// fast grammar if it covers the whole line, parseLineSlow otherwise.
//
//slicelint:hotpath
func parseLine(line []byte) (ts int64, v float64, key int32, ok bool) {
	if ts, v, key, end, ok := scanFields(line, 0); ok && end == len(line) {
		return ts, v, key, true
	}
	return parseLineSlow(line)
}

// scanFields reads "ts,value[,key]" at b[i:] and returns the index behind it;
// ok false says the fast grammar does not cover what is there.
//
// The fast grammar is what the input almost always is — optionally signed
// decimal digits, the value optionally with a fraction — and it is exact by
// construction: a timestamp of at most 18 digits and a key of at most 9 cannot
// overflow, and a value of at most 15 digits has a mantissa below 2^53 and a
// fraction scale of at most 10^15, both exact float64s, whose one IEEE
// division is the correctly rounded result (the argument of strconv's own
// exact path). Everything else — spaces inside the line, exponents, hex
// floats, NaN, Inf, longer digit strings, wrong field counts — goes to
// parseLineSlow, so which lines are accepted and what they parse to is what
// strconv says.
func scanFields(b []byte, i int) (ts int64, v float64, key int32, end int, ok bool) {
	ts, j := scanInt(b, i, 18)
	if j == i || j == len(b) || b[j] != ',' {
		return 0, 0, 0, j, false
	}
	j++
	neg := false
	if j < len(b) && (b[j] == '-' || b[j] == '+') {
		neg = b[j] == '-'
		j++
	}
	var mant int64
	start := j
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		mant = mant*10 + int64(b[j]-'0')
	}
	digits, frac := j-start, 0
	if j < len(b) && b[j] == '.' {
		j++
		start = j
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			mant = mant*10 + int64(b[j]-'0')
		}
		frac = j - start
		digits += frac
	}
	if digits == 0 || digits >= len(pow10) {
		return 0, 0, 0, j, false
	}
	if v = float64(mant); frac > 0 {
		v /= pow10[frac] // integers skip the division, its latency the line's longest
	}
	if neg {
		v = -v
	}
	if j == len(b) || b[j] != ',' {
		return ts, v, 0, j, true
	}
	k, e := scanInt(b, j+1, 9)
	if e == j+1 {
		return 0, 0, 0, e, false
	}
	return ts, v, int32(k), e, true
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

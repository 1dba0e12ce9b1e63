package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// prepared is the product of one set-up: the binary, the input and what the
// oracle expects of it.
type prepared struct {
	bin  string
	in   *input
	want map[winKey]winVal
}

// setUp does everything a measurement needs before its first timed byte:
// build scotty, generate and render the input, compute the expectations. It
// runs, compiler included, on the one CPU the children run on: set-ups free
// to use every CPU took 0.5 s for eight minutes and 0.3 s for the next
// fifteen, while nothing measured on that CPU moved.
func setUp(w workload, seed int64, scale float64) (*prepared, time.Duration, error) {
	child, rest := childCPU()
	confineSelf(child)
	defer confineSelf(child | rest)
	t0 := time.Now()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, 0, err
	}
	bin, err := buildScotty()
	if err != nil {
		return nil, 0, err
	}
	in := generate(w, seed, int(float64(w.tuples)*scale))
	p := &prepared{bin: bin, in: in, want: expectations(in)}
	return p, time.Since(t0), nil
}

// rep is one child run, judged.
type rep struct {
	run        *childRun
	avail      float64 // share of the CPU time asked for during the run that the machine got (steal.go)
	verdict    verdict
	rows       int
	updateRows int
	emitMS     []float64 // one latency per first emission of an expected window, as measured
	firstRowMS float64
}

// measureOnce runs one child over the prepared input and checks its output.
// free is runChild's.
func measureOnce(p *prepared, free bool) (*rep, error) {
	// The generator's garbage collector must not compete with the child.
	gcPercent := debug.SetGCPercent(-1)
	before := readCPU()
	run, err := runChild(p.bin, p.in, free)
	after := readCPU()
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}
	r := &rep{run: run, avail: availability(before, after)}
	if run.exitErr != nil {
		r.verdict = failAll(p.want, fmt.Sprintf("scotty failed: %v; stderr: %s", run.exitErr, run.stderrTail))
		return r, nil
	}
	if len(run.reads) > 0 {
		r.firstRowMS = ms(run.reads[0].t)
	}

	in := p.in
	rows := make([]row, 0, len(p.want)+len(p.want)/8)
	seen := make(map[winKey]bool, len(p.want))
	malformed := 0
	out := run.out
	for off := 0; off < len(out); {
		nl := bytes.IndexByte(out[off:], '\n')
		if nl < 0 {
			malformed++ // a row cut short
			break
		}
		line := out[off : off+nl]
		lineEnd := off + nl
		off = lineEnd + 1
		parsed, err := parseRow(line)
		if err != nil {
			malformed++
			continue
		}
		rows = append(rows, parsed)
		if parsed.update {
			r.updateRows++
			continue
		}
		// Latency: from when the clock of the event that releases this
		// window started (childRun.writes: the write that carried it, or
		// its due time when back-pressure held that write up) to when the
		// row was read back. Window length and watermark lag are not in it;
		// parse, queueing, processing, flush and both pipes are. In a
		// closed loop this is the time a tuple spends in flight under
		// saturation.
		if _, ok := p.want[parsed.winKey]; !ok || seen[parsed.winKey] {
			continue
		}
		seen[parsed.winKey] = true
		ev := in.releaseEvent(parsed.end)
		if ev < 0 {
			continue
		}
		r.emitMS = append(r.emitMS, ms(timeAt(run.reads, lineEnd)-timeAt(run.writes, in.lineEnd[ev]-1)))
	}
	r.rows = len(rows)
	r.verdict = check(p.want, rows, in.lastWM(), malformed)
	return r, nil
}

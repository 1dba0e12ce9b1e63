package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"scotty/internal/stream"
)

// scotty's watermark schedule (cmd/scotty hard-codes the lag; the period is
// the -watermark default). The generator replays it through stream.Feeder to
// know which event releases which window.
var scottyWM = stream.Watermarker{Period: 1000, Lag: 2001}

// A periodic is one sliding (or tumbling: slide == length) time window query.
type periodic struct{ length, slide int64 }

// workload is one set of inputs and the scotty invocation that consumes it.
// Tuple counts are constants, never calibrated at run time: a throughput is
// always stated at its input size.
type workload struct {
	name string
	why  string
	// tuples is the input size of one child run. A measurement repeats
	// child runs on the same input until --seconds have passed and reports
	// the best of them (e2e.go), so the count is sized for 0.1 s per
	// closed-loop child at the seed commit: short enough that some child
	// runs fall into the machine's quiet moments, long enough that a child's
	// start-up is a few percent of it.
	tuples int
	// rate is the open-loop pace in tuples per second; 0 means closed loop
	// (the pipe's back-pressure sets the pace).
	rate float64
	// burst is the open-loop write size in lines: a burst of that many
	// lines is due every burst/rate seconds. It divides the 2000 lines
	// between two watermarks (input.burstFirst relies on it).
	burst   int
	keyed   bool
	agg     string // "sum" or "max"
	queries []periodic
	args    []string // scotty flags
	events  func(seed int64, n int) []stream.Event[stream.Tuple]
}

// burstFirst is the size of the first open-loop burst, which makes the
// release events the last lines of theirs: the rows a watermark releases then
// wait for scotty to take in a whole burst, not for wherever in a burst the
// event happened to fall. Watermarks are w.burst-periodic in the line number
// because the burst size divides the lines per watermark period.
func (in *input) burstFirst() int {
	if len(in.wms) == 0 {
		return in.w.burst
	}
	return in.wms[0].event%in.w.burst + 1
}

// burstPeriod is the time between two open-loop bursts.
func (w workload) burstPeriod() time.Duration {
	return time.Duration(float64(w.burst) / w.rate * float64(time.Second))
}

func slidingSet(lengths ...int64) []periodic {
	qs := make([]periodic, len(lengths))
	for i, l := range lengths {
		qs[i] = periodic{l, 1000}
	}
	return qs
}

func windowsFlag(qs []periodic) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = fmt.Sprintf("sliding:%d:%d", q.length, q.slide)
	}
	return strings.Join(parts, ",")
}

// fleet64 is 64 correlated sliding queries, 1 s to 64 s long.
var fleet64 = func() []periodic {
	lengths := make([]int64, 64)
	for i := range lengths {
		lengths[i] = int64(i+1) * 1000
	}
	return slidingSet(lengths...)
}()

var paced4 = slidingSet(5000, 10000, 20000, 40000)

// Disorder of csv-ooo-fleet64. The delay bound sits between scotty's
// watermark lag (2001 ms) and lag + allowed lateness (4001 ms): delays past
// the lag land behind an emitted watermark and force update rows, and none
// is late enough to be dropped.
const (
	oooFraction = 0.2
	oooMaxDelay = 3500
)

const (
	zipfKeys = 10000
	zipfS    = 1.1
)

var workloads = []workload{
	{
		name:    "csv-inorder-1q",
		why:     "closed loop, 150k in-order tuples, one sliding sum: ingest-bound (parse, hand-off, watermarks, per-tuple core path); fleet, keyed and store reads are bypassed, 1 row per 2000 tuples",
		tuples:  150_000,
		agg:     "sum",
		queries: slidingSet(10000),
		args:    []string{"-window", "sliding", "-length", "10000", "-slide", "1000", "-agg", "sum"},
		events:  denseEvents,
	},
	{
		name:    "csv-ooo-fleet64",
		why:     "closed loop, 20k sparse tuples, 20% delayed up to 3.5 s, 64 sliding max queries: emission-bound (fleet plan, range folds, out-of-order inserts, update rows, row formatting), ~7 rows out per tuple",
		tuples:  20_000,
		agg:     "max",
		queries: fleet64,
		args:    []string{"-windows", windowsFlag(fleet64), "-agg", "max", "-lateness", "2000"},
		events:  sparseDisorderedEvents,
	},
	{
		name:    "csv-keyed-zipf10k",
		why:     "closed loop, 50k in-order tuples over 10000 Zipf(1.1) keys, one tumbling sum per key: state- and key-dispatch-bound (map lookups, O(keys) watermark broadcast, per-key rows); the peak_rss_mb workload",
		tuples:  50_000,
		keyed:   true,
		agg:     "sum",
		queries: []periodic{{5000, 5000}},
		args:    []string{"-keyed", "-window", "tumbling", "-length", "5000", "-agg", "sum"},
		events:  zipfEvents,
	},
	{
		name:    "paced-4q",
		why:     "open loop, a 1000-line burst every 5 ms (200k tuples/s), four sliding sums: ingest woken per burst, flush per watermark; an input path that waits to fill batches shows here as worse emit_ms",
		tuples:  50_000,
		rate:    200_000,
		burst:   1000,
		agg:     "sum",
		queries: paced4,
		args:    []string{"-windows", windowsFlag(paced4), "-agg", "sum"},
		events:  denseEvents,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Payloads are integer-valued floats below 1000, so every window sum is an
// exact float64 and the oracle can compare with ==.
func payload(r *rand.Rand) float64 { return float64(r.Intn(1000)) }

// denseEvents is an in-order stream of 2 tuples per event-millisecond.
func denseEvents(seed int64, n int) []stream.Event[stream.Tuple] {
	r := rand.New(rand.NewSource(seed))
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i / 2), Seq: int64(i), Value: stream.Tuple{V: payload(r)}}
	}
	return ev
}

// sparseDisorderedEvents is 1 tuple per 50 event-ms with a fifth of the
// tuples arriving late (stream.Apply derives the arrival order).
func sparseDisorderedEvents(seed int64, n int) []stream.Event[stream.Tuple] {
	r := rand.New(rand.NewSource(seed))
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i) * 50, Value: stream.Tuple{V: payload(r)}}
	}
	ev = stream.Apply(stream.Disorder{Fraction: oooFraction, MaxDelay: oooMaxDelay, Seed: seed}, ev)
	for i := range ev {
		ev[i].Seq = int64(i) // scotty numbers lines in arrival order
	}
	return ev
}

// zipfEvents is denseEvents with a Zipf-distributed key per tuple (key 0 is
// the hottest).
func zipfEvents(seed int64, n int) []stream.Event[stream.Tuple] {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, 1, zipfKeys-1)
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{
			Time: int64(i / 2), Seq: int64(i),
			Value: stream.Tuple{Key: int32(z.Uint64()), V: payload(r)},
		}
	}
	return ev
}

// input is one workload's generated input, rendered once during set-up:
// scotty receives only csv.
type input struct {
	w      workload
	events []stream.Event[stream.Tuple] // arrival order
	csv    []byte
	// lineEnd[i] is the offset just past event i's newline in csv.
	lineEnd []int
	sha256  string
	// wms are the watermarks scotty will generate, in order, each with the
	// index of the event whose arrival makes it due.
	wms []release
}

type release struct {
	wm    int64
	event int
}

func generate(w workload, seed int64, n int) *input {
	in := &input{w: w, events: w.events(seed, n)}
	var buf bytes.Buffer
	buf.Grow(n * 16)
	in.lineEnd = make([]int, n)
	var num []byte
	for i, e := range in.events {
		num = strconv.AppendInt(num[:0], e.Time, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, int64(e.Value.V), 10)
		if w.keyed {
			num = append(num, ',')
			num = strconv.AppendInt(num, int64(e.Value.Key), 10)
		}
		num = append(num, '\n')
		buf.Write(num)
		in.lineEnd[i] = buf.Len()
	}
	in.csv = buf.Bytes()
	sum := sha256.Sum256(in.csv)
	in.sha256 = hex.EncodeToString(sum[:])
	in.wms = releases(in.events)
	return in
}

// releases replays scotty's watermarker over the arrival-ordered events.
func releases(events []stream.Event[stream.Tuple]) []release {
	f := stream.NewFeeder[stream.Tuple](scottyWM)
	var out []release
	var items []stream.Item[stream.Tuple]
	for i, e := range events {
		items = f.Feed(items[:0], e)
		for _, it := range items {
			if it.Kind == stream.KindWatermark {
				out = append(out, release{it.Watermark, i})
			}
		}
	}
	return out
}

// lastWM is the last watermark before EOF: windows ending after it are only
// flushed by scotty's closing MaxTime drain, as provisional rows.
func (in *input) lastWM() int64 {
	if len(in.wms) == 0 {
		return stream.MinTime
	}
	return in.wms[len(in.wms)-1].wm
}

// releaseEvent returns the index of the event that releases a window ending
// at end (the first whose watermark reaches end-1), or -1 if only the
// closing drain does.
func (in *input) releaseEvent(end int64) int {
	lo, hi := 0, len(in.wms)
	for lo < hi {
		mid := (lo + hi) / 2
		if in.wms[mid].wm >= end-1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(in.wms) {
		return -1
	}
	return in.wms[lo].event
}

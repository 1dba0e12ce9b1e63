// Package benchutil is the benchmark harness shared by the repository's
// testing.B benchmarks and the cmd/benchmark experiment driver. It provides a
// uniform operator abstraction over general stream slicing and every baseline
// technique, the paper's workload generators (§6.1-§6.3), throughput and
// latency runners, and table/CSV output.
package benchutil

import (
	"fmt"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/baselines"
	"scotty/internal/core"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Technique names one window-aggregation technique (§3, §6.2 baselines).
type Technique string

const (
	LazySlicing  Technique = "lazy-slicing"  // general stream slicing, lazy store
	EagerSlicing Technique = "eager-slicing" // general stream slicing, eager tree
	DABASlicing  Technique = "daba-slicing"  // general stream slicing, DABA-Lite store (worst-case O(1))
	Pairs        Technique = "pairs"         // Krishnamurthy et al. [28]
	Cutty        Technique = "cutty"         // Carbone et al. [10]
	Buckets      Technique = "buckets"       // WID / Flink aggregate buckets
	TupleBuckets Technique = "tuple-buckets" // WID / Flink buckets storing tuples
	TupleBuffer  Technique = "tuple-buffer"  // sorted ring buffer, no sharing
	AggTree      Technique = "agg-tree"      // FlatFAT over tuples

	// FleetSlicing runs the cost-based factor-window sharing layer
	// (internal/fleet) over the lazy slicing core. It is deliberately absent
	// from AllTechniques: the sweep figures compare per-query techniques,
	// while the sharing layer changes the workload's physical shape — it gets
	// its own figure (benchmark -fig fleet).
	FleetSlicing Technique = "fleet-slicing"
)

// AllTechniques lists every technique for sweep experiments.
var AllTechniques = []Technique{
	LazySlicing, EagerSlicing, DABASlicing, Pairs, Cutty, Buckets, TupleBuffer, AggTree,
}

// InOrderOnly reports whether the technique supports in-order streams only.
// DABA-Lite is an in-order structure by construction (FIFO pushes of closed
// slices); on out-of-order streams the DABA store would silently degrade to
// the lazy fold, so benchmarking it there would mislead.
func (t Technique) InOrderOnly() bool { return t == Pairs || t == Cutty || t == DABASlicing }

// Op drives one operator instance uniformly: feed an item, learn how many
// results it emitted.
type Op func(it stream.Item[stream.Tuple]) int

// Workload describes an experiment's stream-independent configuration.
type Workload struct {
	Ordered  bool
	Lateness int64
	Defs     func() []window.Definition // fresh definitions per operator
}

// NewOp builds an operator of the given technique for the workload, using
// the aggregation function f. An unknown technique is a caller error and is
// reported as one, not a panic: cmd/benchmark takes technique names from the
// command line.
func NewOp[A, Out any](t Technique, f aggregate.Function[stream.Tuple, A, Out], w Workload) (Op, error) {
	defs := w.Defs()
	switch t {
	case LazySlicing, EagerSlicing, DABASlicing:
		ag := core.New(f, core.Options{Ordered: w.Ordered, Lateness: w.Lateness, Store: storeKind(t)})
		for _, d := range defs {
			ag.MustAddQuery(d)
		}
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(ag.ProcessElement(it.Event))
			}
			return len(ag.ProcessWatermark(it.Watermark))
		}, nil
	case FleetSlicing:
		fl := fleet.New(f, fleet.Options{Options: core.Options{Ordered: w.Ordered, Lateness: w.Lateness}})
		for _, d := range defs {
			fl.MustAddQuery(d)
		}
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(fl.ProcessElement(it.Event))
			}
			return len(fl.ProcessWatermark(it.Watermark))
		}, nil
	case Pairs:
		op := baselines.NewPairs(f)
		return feedBaseline(op, defs), nil
	case Cutty:
		op := baselines.NewCutty(f)
		return feedBaseline(op, defs), nil
	case Buckets:
		op := baselines.NewBuckets(f, false, w.Ordered, w.Lateness)
		return feedBaseline(op, defs), nil
	case TupleBuckets:
		op := baselines.NewBuckets(f, true, w.Ordered, w.Lateness)
		return feedBaseline(op, defs), nil
	case TupleBuffer:
		op := baselines.NewTupleBuffer(f, w.Ordered, w.Lateness)
		return feedBaseline(op, defs), nil
	case AggTree:
		op := baselines.NewAggTree(f, w.Ordered, w.Lateness)
		return feedBaseline(op, defs), nil
	default:
		return nil, fmt.Errorf("benchutil: unknown technique %q", t)
	}
}

// BatchOp drives one operator instance with whole arrival-ordered batches:
// feed a chunk of items, learn how many results it emitted.
type BatchOp func(items []stream.Item[stream.Tuple]) int

// NewBatchOp builds a batch-driven operator of the given technique. The
// slicing techniques route through core's ProcessBatch run fast path; the
// baselines loop per item behind the same signature (their per-tuple work is
// the cost the batch path exists to amortize away).
func NewBatchOp[A, Out any](t Technique, f aggregate.Function[stream.Tuple, A, Out], w Workload) (BatchOp, error) {
	switch t {
	case LazySlicing, EagerSlicing, DABASlicing:
		ag := core.New(f, core.Options{Ordered: w.Ordered, Lateness: w.Lateness, Store: storeKind(t)})
		for _, d := range w.Defs() {
			ag.MustAddQuery(d)
		}
		return func(items []stream.Item[stream.Tuple]) int {
			return len(ag.ProcessBatch(items))
		}, nil
	case FleetSlicing:
		fl := fleet.New(f, fleet.Options{Options: core.Options{Ordered: w.Ordered, Lateness: w.Lateness}})
		for _, d := range w.Defs() {
			fl.MustAddQuery(d)
		}
		return func(items []stream.Item[stream.Tuple]) int {
			return len(fl.ProcessBatch(items))
		}, nil
	default:
		op, err := NewOp(t, f, w)
		if err != nil {
			return nil, err
		}
		return func(items []stream.Item[stream.Tuple]) int {
			n := 0
			for _, it := range items {
				n += op(it)
			}
			return n
		}, nil
	}
}

// storeKind maps a slicing technique to its core store selection.
func storeKind(t Technique) core.StoreKind {
	switch t {
	case EagerSlicing:
		return core.StoreEager
	case DABASlicing:
		return core.StoreDABA
	default:
		return core.StoreLazy
	}
}

func feedBaseline[Out any](op baselines.Operator[stream.Tuple, Out], defs []window.Definition) Op {
	for _, d := range defs {
		op.AddQuery(d)
	}
	return func(it stream.Item[stream.Tuple]) int {
		if it.Kind == stream.KindEvent {
			return len(op.ProcessElement(it.Event))
		}
		return len(op.ProcessWatermark(it.Watermark))
	}
}

// SumFn is the default aggregation of §6.2/§6.3: sum over the value column.
func SumFn() aggregate.Function[stream.Tuple, float64, float64] {
	return aggregate.Sum(stream.Val)
}

// ------------------------------------------------------------ workloads ---

// TumblingQueries returns n concurrent tumbling time-window queries with
// lengths equally distributed between 1 and 20 seconds (§6.2.1: "concurrent
// windows"; n tumbling queries imply n concurrent windows).
func TumblingQueries(n int) []window.Definition {
	defs := make([]window.Definition, n)
	for i := 0; i < n; i++ {
		length := int64(1000)
		if n > 1 {
			length = 1000 + int64(i)*19000/int64(n-1)
		}
		defs[i] = window.Tumbling(stream.Time, length)
	}
	return defs
}

// SlidingQueries returns n concurrent sliding time-window queries with
// lengths equally distributed between 1 and 20 seconds and a fifth-of-length
// slide. Every emission advances the window by one slide and evicts the
// slices that fell behind — the eviction-heavy workload of the tail-latency
// figure, where store maintenance costs (fold length, tree compaction, ring
// rotation) surface in the latency quantiles.
func SlidingQueries(n int) []window.Definition {
	defs := make([]window.Definition, n)
	for i := 0; i < n; i++ {
		length := int64(1000)
		if n > 1 {
			length = 1000 + int64(i)*19000/int64(n-1)
		}
		defs[i] = window.Sliding(stream.Time, length, length/5)
	}
	return defs
}

// WithSession appends the §6.2.2 context-aware representative: a session
// window with a one-second gap.
func WithSession(defs []window.Definition) []window.Definition {
	return append(defs, window.Session[stream.Tuple](1000))
}

// CountQueries returns n concurrent tumbling count-window queries with
// lengths equally distributed between 100 and 2000 tuples (the count-measure
// analog of TumblingQueries used in Fig 13/16).
func CountQueries(n int) []window.Definition {
	defs := make([]window.Definition, n)
	for i := 0; i < n; i++ {
		length := int64(100)
		if n > 1 {
			length = 100 + int64(i)*1900/int64(n-1)
		}
		defs[i] = window.Tumbling(stream.Count, length)
	}
	return defs
}

// Input is a prepared, replayable experiment stream.
type Input struct {
	Items  []stream.Item[stream.Tuple]
	Events int
}

// MakeInput generates a profile stream, applies disorder, and interleaves
// watermarks (period 1s of event time, lag = max delay + 1 so only the
// intended fraction of tuples is late).
func MakeInput(p stream.Profile, n int, d stream.Disorder, seed int64) Input {
	ev := stream.Generate(p, n, seed)
	arr := stream.Apply(d, ev)
	items := stream.Prepare(stream.Watermarker{Period: 1000, Lag: d.MaxDelay + 1}, arr)
	return Input{Items: items, Events: len(ev)}
}

// ----------------------------------------------------------- measuring ----

// Throughput replays the input through the operator and returns tuples per
// second of wall-clock time.
func Throughput(op Op, in Input) (tuplesPerSec float64, results int64) {
	start := time.Now()
	var r int64
	for _, it := range in.Items {
		r += int64(op(it))
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, r
	}
	return float64(in.Events) / elapsed.Seconds(), r
}

// ThroughputBatched replays the input through the batch operator in chunks
// of batchSize items and returns tuples per second of wall-clock time.
func ThroughputBatched(op BatchOp, in Input, batchSize int) (tuplesPerSec float64, results int64) {
	if batchSize <= 0 {
		batchSize = 256
	}
	start := time.Now()
	var r int64
	for i := 0; i < len(in.Items); i += batchSize {
		j := i + batchSize
		if j > len(in.Items) {
			j = len(in.Items)
		}
		r += int64(op(in.Items[i:j]))
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, r
	}
	return float64(in.Events) / elapsed.Seconds(), r
}

// MeasureTail replays the input like Throughput but times every event and
// returns the per-tuple latency quantiles in nanoseconds (p50, p90, p95, p99,
// p999 and max; see obs.Histogram.Quantiles). The per-event clock cost is
// accepted because the quantiles are the result; no throughput is reported.
func MeasureTail(op Op, in Input) map[string]float64 {
	lat := obs.NewHistogram(nil)
	for _, it := range in.Items {
		if it.Kind != stream.KindEvent {
			op(it)
			continue
		}
		t0 := time.Now()
		op(it)
		lat.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	return lat.Quantiles()
}

// MeasureLatency samples fn repeatedly and returns the mean latency.
// warmup+rounds keep the measurement in steady state (the JMH analog).
func MeasureLatency(fn func(), warmup, rounds int) time.Duration {
	for i := 0; i < warmup; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(rounds)
}

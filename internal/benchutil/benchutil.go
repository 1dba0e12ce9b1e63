// Package benchutil is the benchmark and test harness shared by the
// repository's testing.B benchmarks, the cmd/benchmark experiment driver and
// every differential test. It provides one operator factory over general
// stream slicing, the fleet, the keyed operator and every baseline technique
// — build's switch is the only code that turns a Technique into an operator —
// with three faces: Op and BatchOp time a run (per tuple or per batch), and
// Rows returns what the operator emitted as internal/reference rows, for
// reference.Check and the differential harness (docs/ROBUSTNESS.md, "The
// differential harness"). It also holds the paper's workload generators
// (§6.1-§6.3), throughput and latency runners, and table/CSV output.
package benchutil

import (
	"fmt"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/baselines"
	"scotty/internal/core"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/reference"
	"scotty/internal/spill"
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
	// (internal/fleet) over the lazy slicing core, FleetEager and FleetDABA
	// over the eager and DABA stores. They are deliberately absent from
	// AllTechniques: the sweep figures compare per-query techniques, while
	// the sharing layer changes the workload's physical shape — it gets its
	// own figure (benchmark -fig fleet).
	FleetSlicing Technique = "fleet-slicing"
	FleetEager   Technique = "fleet-eager-slicing"
	FleetDABA    Technique = "fleet-daba-slicing"

	// Keyed runs core.Keyed over the lazy core, keyed by stream.Tuple's Key.
	// KeyedTTL adds idle-key expiry after Workload.IdleTTL of event time, and
	// KeyedSpill bounds resident state to Workload.SpillBudget bytes, cold
	// keys spilled to Workload.SpillDir. Like the fleet they are absent from
	// AllTechniques.
	Keyed      Technique = "keyed"
	KeyedTTL   Technique = "keyed-ttl"
	KeyedSpill Technique = "keyed-spill"
)

// AllTechniques lists every technique for sweep experiments.
var AllTechniques = []Technique{
	LazySlicing, EagerSlicing, DABASlicing, Pairs, Cutty, Buckets, TupleBuffer, AggTree,
}

// InOrderOnly reports whether the technique supports in-order streams only.
// DABA-Lite is an in-order structure by construction (FIFO pushes of closed
// slices); on out-of-order streams the DABA store would silently degrade to
// the lazy fold, so benchmarking it there would mislead.
func (t Technique) InOrderOnly() bool {
	return t == Pairs || t == Cutty || t == DABASlicing || t == FleetDABA
}

// stores is the core store a slicing or fleet technique runs on, where it
// is not the lazy one.
var stores = map[Technique]core.StoreKind{
	EagerSlicing: core.StoreEager, FleetEager: core.StoreEager, DABASlicing: core.StoreDABA, FleetDABA: core.StoreDABA,
}

// Workload describes an experiment's stream-independent configuration.
type Workload struct {
	Ordered  bool
	Lateness int64
	Defs     func() []window.Definition // fresh definitions per operator

	// IdleTTL is KeyedTTL's idle-key expiry, in event time.
	IdleTTL int64
	// SpillBudget and SpillDir configure KeyedSpill: the resident byte
	// budget and the directory cold keys go to.
	SpillBudget int64
	SpillDir    string
}

// operator is what build returns: exactly one field is set.
type operator[A, Out any] struct {
	ag   *core.Aggregator[stream.Tuple, A, Out]
	fl   *fleet.Fleet[stream.Tuple, A, Out]
	kd   *core.Keyed[int32, stream.Tuple, A, Out]
	base baselines.Operator[stream.Tuple, Out]
}

// build is the operator factory: the one place a Technique becomes an
// operator, registering the workload's queries on it. A technique that
// rejects the workload by rule — mixed measures on an unordered stream, a
// window type a baseline does not support — is an error, and so is an
// unknown technique: cmd/benchmark takes technique names from the command
// line.
func build[A, Out any](t Technique, f aggregate.Function[stream.Tuple, A, Out], w Workload) (op operator[A, Out], err error) {
	newAg := func(store core.StoreKind) (*core.Aggregator[stream.Tuple, A, Out], error) {
		ag := core.New(f, core.Options{Ordered: w.Ordered, Lateness: w.Lateness, Store: store})
		for _, d := range w.Defs() {
			if _, err := ag.AddQuery(d); err != nil {
				return nil, err
			}
		}
		return ag, nil
	}
	switch t {
	case LazySlicing, EagerSlicing, DABASlicing:
		op.ag, err = newAg(stores[t])
	case FleetSlicing, FleetEager, FleetDABA:
		op.fl = fleet.New(f, fleet.Options{Options: core.Options{Ordered: w.Ordered, Lateness: w.Lateness, Store: stores[t]}})
		for _, d := range w.Defs() {
			if _, err = op.fl.AddQuery(d); err != nil {
				break
			}
		}
	case Keyed, KeyedTTL, KeyedSpill:
		op.kd, err = buildKeyed(t, newAg, w)
	case Pairs:
		op.base, err = addQueries(baselines.NewPairs(f), w)
	case Cutty:
		op.base, err = addQueries(baselines.NewCutty(f), w)
	case Buckets:
		op.base, err = addQueries(baselines.NewBuckets(f, false, w.Ordered, w.Lateness), w)
	case TupleBuckets:
		op.base, err = addQueries(baselines.NewBuckets(f, true, w.Ordered, w.Lateness), w)
	case TupleBuffer:
		op.base, err = addQueries(baselines.NewTupleBuffer(f, w.Ordered, w.Lateness), w)
	case AggTree:
		op.base, err = addQueries(baselines.NewAggTree(f, w.Ordered, w.Lateness), w)
	default:
		err = fmt.Errorf("benchutil: unknown technique %q", t)
	}
	return op, err
}

// buildKeyed builds the keyed techniques. One operator is built first to
// validate the workload: core.NewKeyed builds every key's operator itself and
// has no way to report a query set the core rejects.
func buildKeyed[A, Out any](t Technique, newAg func(core.StoreKind) (*core.Aggregator[stream.Tuple, A, Out], error), w Workload) (*core.Keyed[int32, stream.Tuple, A, Out], error) {
	if _, err := newAg(core.StoreLazy); err != nil {
		return nil, err
	}
	var ttl int64
	if t == KeyedTTL {
		ttl = w.IdleTTL
	}
	k := core.NewKeyed(func(v stream.Tuple) int32 { return v.Key }, ttl, func() *core.Aggregator[stream.Tuple, A, Out] {
		ag, _ := newAg(core.StoreLazy) // the same workload was accepted above; the core's rules read nothing else
		return ag
	})
	if t == KeyedSpill {
		if w.SpillDir == "" {
			return nil, fmt.Errorf("benchutil: %s needs a spill directory", t)
		}
		st, err := spill.Open(w.SpillDir)
		if err != nil {
			return nil, err
		}
		if err := k.EnableSpill(core.SpillConfig{Budget: w.SpillBudget, Store: st}); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// addQueries registers the workload's queries on a baseline. A baseline
// rejects a window type it does not support by panicking in AddQuery; that
// is returned as an error here, like the core's rejections.
func addQueries[Out any](op baselines.Operator[stream.Tuple, Out], w Workload) (_ baselines.Operator[stream.Tuple, Out], err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for _, d := range w.Defs() {
		op.AddQuery(d)
	}
	return op, nil
}

// Op drives one operator instance uniformly: feed an item, learn how many
// results it emitted.
type Op func(it stream.Item[stream.Tuple]) int

// NewOp builds an operator of the given technique for the workload, using
// the aggregation function f, driven one ProcessElement or ProcessWatermark
// call per item.
func NewOp[A, Out any](t Technique, f aggregate.Function[stream.Tuple, A, Out], w Workload) (Op, error) {
	op, err := build(t, f, w)
	switch {
	case err != nil:
		return nil, err
	case op.ag != nil:
		ag := op.ag
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(ag.ProcessElement(it.Event))
			}
			return len(ag.ProcessWatermark(it.Watermark))
		}, nil
	case op.fl != nil:
		fl := op.fl
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(fl.ProcessElement(it.Event))
			}
			return len(fl.ProcessWatermark(it.Watermark))
		}, nil
	case op.kd != nil:
		kd := op.kd
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(kd.ProcessElement(it.Event))
			}
			return len(kd.ProcessWatermark(it.Watermark))
		}, nil
	default:
		base := op.base
		return func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(base.ProcessElement(it.Event))
			}
			return len(base.ProcessWatermark(it.Watermark))
		}, nil
	}
}

// BatchOp drives one operator instance with whole arrival-ordered batches:
// feed a chunk of items, learn how many results it emitted.
type BatchOp func(items []stream.Item[stream.Tuple]) int

// NewBatchOp builds a batch-driven operator of the given technique. The
// slicing techniques route through their ProcessBatch run fast path; the
// baselines loop per item behind the same signature (their per-tuple work is
// the cost the batch path exists to amortize away).
func NewBatchOp[A, Out any](t Technique, f aggregate.Function[stream.Tuple, A, Out], w Workload) (BatchOp, error) {
	op, err := build(t, f, w)
	switch {
	case err != nil:
		return nil, err
	case op.ag != nil:
		return func(items []stream.Item[stream.Tuple]) int { return len(op.ag.ProcessBatch(items)) }, nil
	case op.fl != nil:
		return func(items []stream.Item[stream.Tuple]) int { return len(op.fl.ProcessBatch(items)) }, nil
	case op.kd != nil:
		return func(items []stream.Item[stream.Tuple]) int { return len(op.kd.ProcessBatch(items)) }, nil
	default:
		return func(items []stream.Item[stream.Tuple]) int {
			n := 0
			for _, it := range items {
				if it.Kind == stream.KindEvent {
					n += len(op.base.ProcessElement(it.Event))
				} else {
					n += len(op.base.ProcessWatermark(it.Watermark))
				}
			}
			return n
		}, nil
	}
}

// Rows is an operator built for a differential harness. Element feeds one
// item through ProcessElement or ProcessWatermark, Batch a run of items
// through ProcessBatch (per item for the baselines); both return the rows
// emitted, in emission order. Snapshot and Restore are nil where the
// technique has no snapshots, AddQuery and RemoveQuery where it cannot change
// its query set mid-stream. Op is the operator itself, for assertions on its
// statistics or plan.
type Rows struct {
	Element     func(it stream.Item[stream.Tuple]) []reference.Row
	Batch       func(items []stream.Item[stream.Tuple]) []reference.Row
	Snapshot    func() ([]byte, error)
	Restore     func(data []byte) error
	AddQuery    func(def window.Definition) (int, error)
	RemoveQuery func(id int)
	Op          any
}

// NewRows builds an operator of the given technique for the workload, with
// the aggregation function f, behind Rows.
func NewRows[A any](t Technique, f aggregate.Function[stream.Tuple, A, float64], w Workload) (*Rows, error) {
	op, err := build(t, f, w)
	switch {
	case err != nil:
		return nil, err
	case op.ag != nil:
		r := rowsOf(op.ag, op.ag.ProcessBatch, coreRow)
		r.Snapshot, r.Restore, r.AddQuery, r.RemoveQuery = op.ag.Snapshot, op.ag.Restore, op.ag.AddQuery, op.ag.RemoveQuery
		return r, nil
	case op.fl != nil:
		r := rowsOf(op.fl, op.fl.ProcessBatch, coreRow)
		r.Snapshot, r.Restore, r.AddQuery, r.RemoveQuery = op.fl.Snapshot, op.fl.Restore, op.fl.AddQuery, op.fl.RemoveQuery
		return r, nil
	case op.kd != nil:
		r := rowsOf(op.kd, op.kd.ProcessBatch, func(r core.KeyedResult[int32, float64]) reference.Row {
			row := coreRow(r.Result)
			row.Key = int64(r.Key)
			return row
		})
		r.Snapshot, r.Restore = op.kd.Snapshot, op.kd.Restore
		return r, nil
	default:
		return rowsOf(op.base, nil, func(r baselines.Result[float64]) reference.Row { return coreRow(core.Result[float64](r)) }), nil
	}
}

// processor is the per-item face every operator has; R is its result type.
type processor[R any] interface {
	ProcessElement(e stream.Event[stream.Tuple]) []R
	ProcessWatermark(wm int64) []R
}

// rowsOf is the one Element/Batch adapter behind Rows: op's results,
// converted by row. batch is op's ProcessBatch, or nil to loop per item.
func rowsOf[R any](op processor[R], batch func([]stream.Item[stream.Tuple]) []R, row func(R) reference.Row) *Rows {
	rows := func(rs []R) []reference.Row {
		out := make([]reference.Row, len(rs))
		for i, r := range rs {
			out[i] = row(r)
		}
		return out
	}
	element := func(it stream.Item[stream.Tuple]) []reference.Row {
		if it.Kind == stream.KindEvent {
			return rows(op.ProcessElement(it.Event))
		}
		return rows(op.ProcessWatermark(it.Watermark))
	}
	r := &Rows{Element: element, Op: op}
	r.Batch = func(items []stream.Item[stream.Tuple]) []reference.Row {
		if batch != nil {
			return rows(batch(items))
		}
		var out []reference.Row
		for _, it := range items {
			out = append(out, element(it)...)
		}
		return out
	}
	return r
}

func coreRow(r core.Result[float64]) reference.Row {
	return reference.Row{Query: r.Query, Start: r.Start, End: r.End, N: r.N, Value: r.Value, Update: r.Update}
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

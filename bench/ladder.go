package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/engine"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/spill"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// The ladder replays generated inputs in-process through each layer's
// exported API, from the raw aggregate fold (the roofline) up to the engine.
// Its inputs are the workloads' own generators at fixed, smaller sizes, so
// every traced run climbs the whole ladder whichever workload it was asked
// for, and the rungs stay comparable between workloads.
const (
	ladderDense  = 1_000_000 // csv-inorder-1q's stream
	ladderSparse = 20_000    // csv-ooo-fleet64's stream
	ladderKeyed  = 200_000   // csv-keyed-zipf10k's stream
	ladderEdge   = 1_000_000 // messages through one ops.Edge
	// ladderReps is how often each rung runs; its figure is the median.
	ladderReps = 3
	// batchLen is the tuples per ProcessBatch call and per span.
	batchLen = 256
)

func ident(v float64) float64 { return v }

func aggFloat(name string) aggregate.Function[float64, float64, float64] {
	if name == "max" {
		return aggregate.Max[float64](ident)
	}
	return aggregate.Sum[float64](ident)
}

func aggTuple(name string) aggregate.Function[stream.Tuple, float64, float64] {
	if name == "max" {
		return aggregate.Max(stream.Val)
	}
	return aggregate.Sum(stream.Val)
}

func defsOf(qs []periodic) []window.Definition {
	defs := make([]window.Definition, len(qs))
	for i, q := range qs {
		defs[i] = window.Sliding(stream.Time, q.length, q.slide)
	}
	return defs
}

// scottyLateness is scotty's -lateness default, which every workload runs at.
const scottyLateness = 2000

func newCore(agg string, qs []periodic, opts core.Options) *core.Aggregator[float64, float64, float64] {
	ag := core.New(aggFloat(agg), opts)
	for _, def := range defsOf(qs) {
		ag.MustAddQuery(def)
	}
	return ag
}

func newFleet(agg string, qs []periodic) *fleet.Fleet[float64, float64, float64] {
	fl := fleet.New(aggFloat(agg), fleet.Options{Options: core.Options{Lateness: scottyLateness}})
	for _, def := range defsOf(qs) {
		fl.MustAddQuery(def)
	}
	return fl
}

func newKeyed(agg string, qs []periodic) *core.Keyed[int32, stream.Tuple, float64, float64] {
	f := aggTuple(agg)
	return core.NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 0, func() *core.Aggregator[stream.Tuple, float64, float64] {
		ag := core.New(f, core.Options{Lateness: scottyLateness})
		// Fresh definitions per key: they carry their trigger cursor.
		for _, def := range defsOf(qs) {
			ag.MustAddQuery(def)
		}
		return ag
	})
}

// unkeyed strips the key, giving the payload type scotty's unkeyed path uses.
func unkeyed(events []stream.Event[stream.Tuple]) []stream.Event[float64] {
	out := make([]stream.Event[float64], len(events))
	for i, e := range events {
		out[i] = stream.Event[float64]{Time: e.Time, Seq: e.Seq, Value: e.Value.V}
	}
	return out
}

// prepare interleaves scotty's watermarks, without the closing MaxTime one:
// rungs measure the steady stream, not the final drain.
func prepare[V any](events []stream.Event[V]) []stream.Item[V] {
	items := stream.Prepare(scottyWM, events)
	return items[:len(items)-1]
}

// replayStats is what one pass of a stream through one operator cost.
type replayStats struct {
	tuples, rows, wms int
	batchNS, wmNS     int64
	wall              time.Duration
}

func (s replayStats) nsPerTuple() float64 { return float64(s.batchNS) / float64(s.tuples) }
func (s replayStats) totalPerTuple() float64 {
	return float64(s.batchNS+s.wmNS) / float64(s.tuples)
}

// replay feeds a prepared stream to an operator from outside: the events
// between two watermarks go to onBatch in batches of at most batchLen, each
// watermark goes to onWM, and one span is recorded around each call. Both
// callbacks return the number of rows the call emitted.
func replay[V any](tr *tracer, name string, items []stream.Item[V], onBatch func([]stream.Item[V]) int, onWM func(int64) int) replayStats {
	var st replayStats
	rung := tr.begin(name, 0, -1)
	start := time.Now()
	batch := 0
	for i := 0; i < len(items); {
		if items[i].Kind == stream.KindWatermark {
			id := tr.begin(name+"/watermark", rung, batch)
			t0 := time.Now()
			st.rows += onWM(items[i].Watermark)
			st.wmNS += int64(time.Since(t0))
			tr.end(id)
			st.wms++
			batch++
			i++
			continue
		}
		j := i
		for j < len(items) && j-i < batchLen && items[j].Kind == stream.KindEvent {
			j++
		}
		id := tr.begin(name+"/batch", rung, batch)
		t0 := time.Now()
		st.rows += onBatch(items[i:j])
		st.batchNS += int64(time.Since(t0))
		tr.end(id)
		st.tuples += j - i
		batch++
		i = j
	}
	st.wall = time.Since(start)
	tr.end(rung)
	return st
}

// perElement adapts an operator's ProcessElement to replay's batch callback:
// the way scotty drives its operator today.
func perElement[V, R any](process func(stream.Event[V]) []R) func([]stream.Item[V]) int {
	return func(b []stream.Item[V]) int {
		n := 0
		for _, it := range b {
			n += len(process(it.Event))
		}
		return n
	}
}

// medianOf runs a rung ladderReps times and returns the run with the median
// per-tuple cost.
func medianOf(run func() replayStats) replayStats {
	runs := make([]replayStats, ladderReps)
	for i := range runs {
		runs[i] = run()
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].totalPerTuple() < runs[j].totalPerTuple() })
	return runs[len(runs)/2]
}

func medianFloat(run func() float64) float64 {
	xs := make([]float64, ladderReps)
	for i := range xs {
		xs[i] = run()
	}
	return median(xs)
}

// sink defeats dead-code elimination of the roofline fold.
var sink float64

// climb runs every rung and stores the per-layer metrics in res.
func climb(tr *tracer, seed int64, scale float64, res *result) error {
	scaled := func(n int) int { return int(float64(n) * scale) }
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	dense := unkeyed(denseEvents(seed, scaled(ladderDense)))
	denseItems := prepare(dense)
	one := slidingSet(10000)

	// Roofline: Lift+Combine of the sum over the raw slice.
	sum := aggFloat("sum")
	fold := medianFloat(func() float64 {
		id := tr.begin("aggregate.fold", 0, -1)
		t0 := time.Now()
		a := sum.Identity()
		for _, e := range dense {
			a = sum.Combine(a, sum.Lift(e))
		}
		d := time.Since(t0)
		tr.end(id)
		sink = a
		return float64(d) / float64(len(dense))
	})
	res.set("aggregate.fold.ns_per_tuple", fold, "ns")

	res.set("stream.feed.ns_per_tuple", medianFloat(func() float64 {
		id := tr.begin("stream.feed", 0, -1)
		f := stream.NewFeeder[float64](scottyWM)
		var buf []stream.Item[float64]
		t0 := time.Now()
		for _, e := range dense {
			buf = f.Feed(buf[:0], e)
		}
		d := time.Since(t0)
		tr.end(id)
		return float64(d) / float64(len(dense))
	}), "ns")

	// The core on the in-order stream: what scotty calls today
	// (ProcessElement) against ProcessBatch, then the store variants.
	coreRung := func(tr *tracer, name string, opts core.Options, elementWise bool) replayStats {
		ag := newCore("sum", one, opts)
		onBatch := func(b []stream.Item[float64]) int { return len(ag.ProcessBatch(b)) }
		if elementWise {
			onBatch = perElement(ag.ProcessElement)
		}
		return replay(tr, name, denseItems, onBatch, func(wm int64) int { return len(ag.ProcessWatermark(wm)) })
	}
	lazy := core.Options{Lateness: scottyLateness}
	res.set("core.element.ns_per_tuple", medianOf(func() replayStats { return coreRung(tr, "core.element", lazy, true) }).nsPerTuple(), "ns")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	batch := medianOf(func() replayStats { return coreRung(tr, "core.batch", lazy, false) })
	runtime.ReadMemStats(&ms1)
	res.set("core.batch.ns_per_tuple", batch.nsPerTuple(), "ns")
	res.set("core.allocs_per_tuple", float64(ms1.Mallocs-ms0.Mallocs)/float64(ladderReps*batch.tuples), "count")
	res.set("core.batch.eager.ns_per_tuple", medianOf(func() replayStats {
		return coreRung(tr, "core.batch.eager", core.Options{Lateness: scottyLateness, Store: core.StoreEager}, false)
	}).nsPerTuple(), "ns")
	res.set("core.batch.daba.ns_per_tuple", medianOf(func() replayStats {
		// DABA rings need the in-order mode, which admits no lateness.
		return coreRung(tr, "core.batch.daba", core.Options{Ordered: true, Store: core.StoreDABA}, false)
	}).nsPerTuple(), "ns")

	// Tracing overhead: the same rung with the tracer off.
	untraced := medianOf(func() replayStats { return coreRung(nil, "core.batch", lazy, false) })
	res.set("trace.overhead_share", float64(batch.wall-untraced.wall)/float64(untraced.wall), "ratio")

	// The 64-query fleet on the sparse out-of-order stream, first registered
	// directly on one Aggregator (unshared), then through the sharing layer.
	sparse := unkeyed(sparseDisorderedEvents(seed, scaled(ladderSparse)))
	sparseItems := prepare(sparse)
	var updates, slicesMax int
	var dropped int64
	ooo := medianOf(func() replayStats {
		ag := newCore("max", fleet64, lazy)
		updates, slicesMax = 0, 0
		count := func(rs []core.Result[float64]) int {
			for _, r := range rs {
				if r.Update {
					updates++
				}
			}
			return len(rs)
		}
		st := replay(tr, "core.ooo", sparseItems,
			func(b []stream.Item[float64]) int { return count(ag.ProcessBatch(b)) },
			func(wm int64) int {
				n := count(ag.ProcessWatermark(wm))
				if s := ag.Stats().Slices; s > slicesMax {
					slicesMax = s
				}
				return n
			})
		dropped = ag.Stats().Dropped
		return st
	})
	res.set("core.ooo.ns_per_tuple", ooo.nsPerTuple(), "ns")
	res.set("core.watermark.ns_per_row", float64(ooo.wmNS)/float64(ooo.rows), "ns")
	res.set("core.updates", float64(updates), "count")
	res.set("core.results", float64(ooo.rows), "count")
	res.set("core.slices.max", float64(slicesMax), "count")
	res.set("core.dropped", float64(dropped), "count")
	invariant(res, dropped == 0, "core dropped %d tuples of the out-of-order stream", dropped)

	var plan fleet.PlanInfo
	fl := medianOf(func() replayStats {
		f := newFleet("max", fleet64)
		st := replay(tr, "fleet", sparseItems,
			func(b []stream.Item[float64]) int { return len(f.ProcessBatch(b)) },
			func(wm int64) int { return len(f.ProcessWatermark(wm)) })
		plan = f.Plan()
		return st
	})
	res.set("fleet.batch.ns_per_tuple", fl.nsPerTuple(), "ns")
	res.set("fleet.watermark.ns_per_row", float64(fl.wmNS)/float64(fl.rows), "ns")
	res.set("fleet.logical_queries", float64(plan.Logical), "count")
	res.set("fleet.physical_queries", float64(plan.Physical), "count")
	res.set("fleet.share_ratio", float64(plan.Logical)/float64(plan.Physical), "ratio")
	res.set("fleet.vs_unshared", fl.totalPerTuple()/ooo.totalPerTuple(), "ratio")
	invariant(res, fl.rows == ooo.rows, "fleet emitted %d rows, the unshared core %d", fl.rows, ooo.rows)

	// The keyed operator on the Zipf stream, unbounded and then with the
	// spill tier at a tenth of its resident size.
	keyedEvents := zipfEvents(seed, scaled(ladderKeyed))
	keyedItems := prepare(keyedEvents)
	tumbling := []periodic{{5000, 5000}}
	hot := 0
	for _, e := range keyedEvents {
		if e.Value.Key == 0 {
			hot++
		}
	}
	var kd *core.Keyed[int32, stream.Tuple, float64, float64]
	keyedRung := func(name string, k *core.Keyed[int32, stream.Tuple, float64, float64]) replayStats {
		return replay(tr, name, keyedItems,
			func(b []stream.Item[stream.Tuple]) int { return len(k.ProcessBatch(b)) },
			func(wm int64) int { return len(k.ProcessWatermark(wm)) })
	}
	keyed := medianOf(func() replayStats {
		kd = newKeyed("sum", tumbling)
		return keyedRung("keyed", kd)
	})
	resident := kd.ResidentBytesEstimate()
	res.set("keyed.batch.ns_per_tuple", keyed.nsPerTuple(), "ns")
	res.set("keyed.watermark.ns_per_key", float64(keyed.wmNS)/float64(keyed.wms)/float64(kd.Keys()), "ns")
	res.set("keyed.keys", float64(kd.Keys()), "count")
	res.set("keyed.resident_bytes", float64(resident), "B")
	res.set("keyed.top1_key_share", float64(hot)/float64(len(keyedEvents)), "ratio")

	id := tr.begin("checkpoint.snapshot", 0, -1)
	t0 := time.Now()
	snap, err := kd.Snapshot()
	snapD := time.Since(t0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("keyed snapshot: %w", err)
	}
	id = tr.begin("checkpoint.restore", 0, -1)
	t0 = time.Now()
	err = newKeyed("sum", tumbling).Restore(snap)
	restoreD := time.Since(t0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("keyed restore: %w", err)
	}
	res.set("checkpoint.snapshot_ms", ms(snapD), "ms")
	res.set("checkpoint.bytes", float64(len(snap)), "B")
	res.set("checkpoint.restore_ms", ms(restoreD), "ms")

	spillDir := filepath.Join(outDir, "spill-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(spillDir)
	var spillReg *obs.Registry
	var spillShare float64
	spilled := medianOf(func() replayStats {
		k := newKeyed("sum", tumbling)
		store, err := spill.Open(spillDir)
		if err == nil {
			spillReg = obs.NewRegistry()
			err = k.EnableSpill(core.SpillConfig{Budget: resident / 10, Store: store, Metrics: spillReg})
		}
		if err != nil {
			fail(err)
			return replayStats{}
		}
		st := keyedRung("spill", k)
		live, cold, _ := k.SpillStats()
		spillShare = float64(live) / float64(live+cold)
		return st
	})
	if firstErr != nil {
		return fmt.Errorf("spill: %w", firstErr)
	}
	res.set("spill.ns_per_tuple", spilled.totalPerTuple(), "ns")
	res.set("spill.stores", float64(spillReg.Counter("core_spill_stores_total").Value()), "count")
	res.set("spill.loads", float64(spillReg.Counter("core_spill_loads_total").Value()), "count")
	res.set("spill.resident_share", spillShare, "ratio")

	// The engine around the same keyed operator: one partition, then N.
	engineItems := stream.Prepare(scottyWM, keyedEvents)
	parts := runtime.NumCPU()
	if parts > 4 {
		parts = 4
	}
	accounted := true
	var reg *obs.Registry
	engineRun := func(p int) (engine.Stats, error) {
		reg = obs.NewRegistry()
		id := tr.begin("engine.p"+strconv.Itoa(p), 0, -1)
		defer tr.end(id)
		st, err := engine.Run(engine.Config[stream.Tuple]{
			Parallelism: p,
			Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
			NewProcessor: func(int) engine.Processor[stream.Tuple] {
				k := newKeyed("sum", tumbling)
				return engine.BatchProcessorFunc[stream.Tuple](func(b []stream.Item[stream.Tuple]) int { return len(k.ProcessBatch(b)) })
			},
			Metrics: reg,
		}, engineItems)
		if err == nil && st.AccountingError() != nil {
			accounted = false
		}
		return st, err
	}
	p1 := medianFloat(func() float64 {
		st, err := engineRun(1)
		if err != nil {
			fail(err)
		}
		return st.Throughput()
	})
	var last engine.Stats
	pN := medianFloat(func() float64 {
		st, err := engineRun(parts)
		if err != nil {
			fail(err)
		}
		last = st
		return st.Throughput()
	})
	if firstErr != nil {
		return fmt.Errorf("engine: %w", firstErr)
	}
	var stall, most, total int64
	for p := 0; p < parts; p++ {
		l := obs.L("partition", strconv.Itoa(p))
		stall += reg.Counter("engine_queue_stall_ns_total", l).Value()
		n := reg.Counter("engine_events_total", l).Value()
		total += n
		if n > most {
			most = n
		}
	}
	res.set("engine.p1.tuples_per_s", p1, "1/s")
	res.set("engine.pN.tuples_per_s", pN, "1/s")
	res.set("engine.pN.partitions", float64(parts), "count")
	res.set("engine.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	res.set("engine.p1.overhead_ns_per_tuple", 1e9/p1-keyed.totalPerTuple(), "ns")
	res.set("engine.queue_stall_share", float64(stall)/float64(last.Elapsed), "ratio")
	res.set("engine.cpu_util", last.CPUUtilization()/100, "cores")
	res.set("engine.partition_skew", float64(most)*float64(parts)/float64(total), "ratio")
	res.set("engine.accounting_ok", b2f(accounted), "bool")
	invariant(res, accounted, "engine event accounting does not balance")

	res.set("ops.edge.ns_per_msg", medianFloat(func() float64 {
		id := tr.begin("ops.edge", 0, -1)
		defer tr.end(id)
		edge := ops.NewEdge(ops.EdgeConfig[int]{Capacity: 8})
		t0 := time.Now()
		msgs := scaled(ladderEdge)
		go func() {
			for i := 0; i < msgs; i++ {
				edge.Send(i)
			}
			edge.Close()
		}()
		for {
			if _, ok := edge.Recv(); !ok {
				break
			}
		}
		return float64(time.Since(t0)) / float64(msgs)
	}), "ns")
	return nil
}

// invariant counts one ladder check as an attempted operation.
func invariant(res *result, ok bool, format string, args ...any) {
	res.Attempted++
	if !ok {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// inProcess replays a workload's own input through the operator scotty
// builds for it, the way scotty drives it (Feeder, then ProcessElement per
// tuple and ProcessWatermark), and returns the cost per tuple. What scotty's
// CPU time exceeds this by is spent outside the operator: parsing, the line
// hand-off, row formatting, flushing, the runtime.
func inProcess(tr *tracer, in *input) float64 {
	w := in.w
	const name = "scotty.inprocess"
	var feedD time.Duration
	var st replayStats
	if w.keyed {
		items, d := timedPrepare(tr, name, in.events)
		k := newKeyed(w.agg, w.queries)
		feedD, st = d, replay(tr, name, items, perElement(k.ProcessElement),
			func(wm int64) int { return len(k.ProcessWatermark(wm)) })
	} else {
		items, d := timedPrepare(tr, name, unkeyed(in.events))
		var op interface {
			ProcessElement(stream.Event[float64]) []core.Result[float64]
			ProcessWatermark(int64) []core.Result[float64]
		}
		if len(w.queries) > 1 {
			op = newFleet(w.agg, w.queries)
		} else {
			op = newCore(w.agg, w.queries, core.Options{Lateness: scottyLateness})
		}
		feedD, st = d, replay(tr, name, items, perElement(op.ProcessElement),
			func(wm int64) int { return len(op.ProcessWatermark(wm)) })
	}
	return float64(int64(feedD)+st.batchNS+st.wmNS) / float64(st.tuples)
}

// timedPrepare is prepare under a span, with its duration: the Feeder's share
// of the in-process cost.
func timedPrepare[V any](tr *tracer, name string, events []stream.Event[V]) ([]stream.Item[V], time.Duration) {
	id := tr.begin(name+"/feed", 0, -1)
	t0 := time.Now()
	items := prepare(events)
	d := time.Since(t0)
	tr.end(id)
	return items, d
}

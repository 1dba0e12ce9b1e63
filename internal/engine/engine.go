// Package engine is a minimal tuple-at-a-time dataflow runtime: a source,
// hash key partitioning, parallel window-operator instances, and a counting
// sink. It stands in for the Apache Flink runtime the paper integrates with
// (§6.4): the paper's parallel experiment only requires key partitioning
// across cores, which is "the common approach used in stream processing
// systems" (§5.3 Parallelization) and is reproduced here with goroutines and
// channels.
//
// The engine is fault tolerant in the aligned-checkpoint style the paper
// inherits from Flink: the source injects watermark-aligned barriers, every
// partition snapshots its operator state at the barrier (Snapshottable), and
// a supervisor restarts failed runs from the last completed checkpoint,
// replaying exactly the uncheckpointed suffix of the input. See
// docs/ROBUSTNESS.md for the protocol.
package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"scotty/internal/checkpoint"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/stream"
)

// Processor is one parallel window-operator instance. Implementations wrap
// the general slicing aggregator or any baseline operator; the engine only
// needs to feed items and count emissions.
type Processor[V any] interface {
	// ProcessItem ingests one stream item and returns the number of
	// window results it emitted.
	ProcessItem(it stream.Item[V]) int
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc[V any] func(it stream.Item[V]) int

// ProcessItem implements Processor.
func (f ProcessorFunc[V]) ProcessItem(it stream.Item[V]) int { return f(it) }

// BatchProcessor is an optional Processor extension. A processor that
// implements it receives each channel batch whole instead of item by item,
// letting batch-aware operators (core.Aggregator.ProcessBatch, core.Keyed)
// amortize their per-tuple overhead across the run. The batch buffer is
// recycled by the engine after the call returns, so implementations must not
// retain it.
type BatchProcessor[V any] interface {
	// ProcessBatch ingests a whole arrival-ordered batch and returns the
	// number of window results it emitted.
	ProcessBatch(items []stream.Item[V]) int
}

// BatchProcessorFunc adapts a function to both Processor and BatchProcessor,
// so batch-aware operators plug into Config.NewProcessor unchanged.
type BatchProcessorFunc[V any] func(items []stream.Item[V]) int

// ProcessBatch implements BatchProcessor.
func (f BatchProcessorFunc[V]) ProcessBatch(items []stream.Item[V]) int { return f(items) }

// ProcessItem implements Processor as a single-item batch.
func (f BatchProcessorFunc[V]) ProcessItem(it stream.Item[V]) int {
	return f([]stream.Item[V]{it})
}

// deliverBatch hands one channel batch to the partition's operator — whole if
// it implements BatchProcessor, item by item otherwise — accumulating emitted
// results into *n. The count is threaded as a pointer because it must stay
// exact when an operator panics mid-batch: the worker's recover handler
// publishes the crash-time count, and replay trimming uses it to suppress
// exactly the results that were already emitted. observe feeds the latency
// histogram; the per-item path calls it per tuple so the metric keeps
// per-result granularity.
//
//slicelint:hotpath
func deliverBatch[V any](proc Processor[V], bp BatchProcessor[V], items []stream.Item[V], n *int64, observe func(int)) {
	if bp != nil {
		k := bp.ProcessBatch(items)
		*n += int64(k)
		observe(k)
		return
	}
	for _, it := range items {
		k := proc.ProcessItem(it)
		*n += int64(k)
		observe(k)
	}
}

// Config controls a pipeline run.
type Config[V any] struct {
	// Parallelism is the number of parallel operator instances.
	Parallelism int
	// Key extracts the partitioning key of an event; events with equal
	// keys are processed by the same instance, watermarks are broadcast.
	// A nil Key with Parallelism > 1 distributes events round-robin across
	// the instances (watermarks are still broadcast); use this only for
	// operators whose state does not depend on co-locating equal keys.
	Key func(e stream.Event[V]) uint64
	// NewProcessor builds the operator instance for one partition. Recovery
	// rebuilds processors, so the function must be callable repeatedly for
	// the same partition.
	NewProcessor func(partition int) Processor[V]
	// BatchSize is the number of items shipped per channel message
	// (network-buffer analog); 0 selects a default of 256.
	BatchSize int
	// QueueLen is each partition edge's capacity in batches (messages);
	// 0 selects a default of 8. Together with BatchSize it bounds the
	// resident queue memory per partition at QueueLen x BatchSize items
	// (defaults: 8 x 256 = 2048). Under Block it sets how far the source
	// may run ahead before stalling; under the dropping policies it is the
	// hard buffer bound the policy defends.
	QueueLen int
	// Backpressure selects the partition edges' overload policy
	// (internal/ops). ops.Block — the default — reproduces the classic
	// blocking channel and is result-identical to the pre-ops engine.
	// ops.DropOldest / ops.DropNewest bound each queue by evicting or
	// rejecting whole event batches under overload; ops.Shed drops event
	// batches probabilistically as occupancy climbs past ShedLowWater.
	// Every drop is counted in Stats.Dropped and
	// engine_events_dropped_total — never silent — and watermarks and
	// checkpoint barriers are never dropped. Non-Block policies are
	// incompatible with checkpointing (Run returns an error): replay
	// offsets assume every pre-barrier event reached its partition.
	Backpressure ops.Policy
	// ShedLowWater is the queue occupancy fraction (0..1) where ops.Shed
	// starts dropping; 0 selects 0.5. Ignored by other policies.
	ShedLowWater float64
	// ShedSeed seeds the deterministic shedding PRNG (per-partition
	// streams are decorrelated from it); 0 selects a fixed default.
	ShedSeed uint64
	// Sink, when non-nil, makes egress fallible: data batches pass a
	// retry/circuit-breaker guard before processing, and permanently
	// rejected batches are dead-lettered. See SinkConfig.
	Sink *SinkConfig[V]
	// Clock supplies the timestamps behind Stats.Elapsed; nil selects
	// time.Now. Tests inject a fake clock to make timing-derived stats
	// deterministic. With a nil Metrics registry and checkpointing disabled
	// the clock is read exactly twice (run start and end); enabling metrics
	// adds reads around channel sends, result emissions, and snapshot
	// writes.
	Clock func() time.Time
	// Metrics, when non-nil, receives the engine's instrumentation:
	// per-partition engine_events_total / engine_results_total /
	// engine_batches_total / engine_queue_stall_ns_total counters, the
	// engine_batch_occupancy histogram, for processors implementing
	// WindowEndReporter the end-to-end engine_latency_ms histogram, and the
	// recovery series engine_recoveries_total / checkpoint_bytes /
	// checkpoint_duration_ms. A nil registry keeps the hot path free of any
	// instrumentation cost.
	Metrics *obs.Registry
	// Checkpoint configures watermark-aligned checkpoints and supervised
	// restart after partition failures; the zero value disables both.
	Checkpoint CheckpointConfig
	// SpillDir, when non-empty, is the scratch root for operators that
	// spill cold state to disk (core.Keyed with EnableSpill). The engine
	// creates it before the first attempt and removes it when Run returns:
	// unlike checkpoints, spill blobs are never consulted across runs —
	// after a restart the snapshot is the source of truth, and each rebuilt
	// processor clears its own partition subdirectory (PartitionSpillDir)
	// when it re-enables spilling.
	SpillDir string
}

// PartitionSpillDir names one partition's spill subdirectory under the run's
// SpillDir. NewProcessor closures pass it to spill.Open so parallel
// instances never share blob namespaces.
func PartitionSpillDir(root string, partition int) string {
	return fmt.Sprintf("%s%cpart-%03d", root, os.PathSeparator, partition)
}

// Stats summarizes a pipeline run. The disposition counters obey the
// no-silent-loss invariant
//
//	EventsIn == Events + Dropped + DeadLettered
//
// exactly, for every backpressure policy, including runs that end in an
// error and runs that recovered from crashes; AccountingError checks it.
type Stats struct {
	// EventsIn is the number of data tuples the source routed into
	// partition queues (replayed tuples are counted once).
	EventsIn int64
	// Events is the number of data tuples processed by the partition
	// operators (replayed tuples are counted once). With the default
	// Block backpressure and no Sink this equals EventsIn.
	Events int64
	// Dropped is the number of data tuples discarded by a dropping
	// backpressure policy or while draining a dead partition's queue —
	// always counted, never silent.
	Dropped int64
	// DeadLettered is the number of data tuples the sink permanently
	// rejected; with SinkConfig.DLQDir set they are also captured in the
	// dead-letter queue.
	DeadLettered int64
	// Results is the number of window aggregates emitted across all
	// partitions (replayed emissions are counted once).
	Results int64
	// Elapsed is the wall-clock duration of the run's final attempt.
	Elapsed time.Duration
	// CPUTime is the process CPU time consumed during the final attempt
	// (user + system across all cores); CPUTime/Elapsed approximates the
	// CPU utilization of Fig 17b.
	CPUTime time.Duration
	// Recoveries is the number of supervised restarts the run needed.
	Recoveries int
	// MaxQueueLen is the high-water partition queue length (in batches)
	// observed during the final attempt — always <= the effective QueueLen,
	// which is how overload tests witness bounded resident queue memory.
	// Block edges are channels that enforce the bound by construction, so
	// the field reports the capacity itself there.
	MaxQueueLen int
	// BreakerTrips and BreakerRecoveries count the sink circuit breakers'
	// transitions to open and their successful half-open probes, summed
	// across partitions and restart attempts. Always zero without a Sink.
	BreakerTrips      int64
	BreakerRecoveries int64
}

// AccountingError verifies the no-silent-loss invariant: every tuple routed
// into the pipeline must end up processed, dropped (counted), or
// dead-lettered (counted). It returns nil when the books balance.
func (s Stats) AccountingError() error {
	if s.EventsIn == s.Events+s.Dropped+s.DeadLettered {
		return nil
	}
	return fmt.Errorf(
		"engine: event accounting mismatch: events_in %d != processed %d + dropped %d + dead_lettered %d",
		s.EventsIn, s.Events, s.Dropped, s.DeadLettered)
}

// Throughput returns processed events per second of wall-clock time.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Events) / s.Elapsed.Seconds()
}

// CPUUtilization returns CPU usage in "percent of one core" units (800%
// means eight cores fully busy), as plotted in Fig 17b.
func (s Stats) CPUUtilization() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return 100 * s.CPUTime.Seconds() / s.Elapsed.Seconds()
}

// Run replays a prepared stream through the parallel pipeline and blocks
// until every partition has drained. A processor panic no longer tears down
// the process: it is confined to its worker as a PartitionError, and — with
// Config.Checkpoint enabled — the supervisor restarts the run from the last
// completed checkpoint with capped exponential backoff, replaying exactly the
// uncheckpointed suffix. When the restart budget is exhausted (or
// checkpointing is disabled) Run returns a RunError wrapping the last
// partition failure.
func Run[V any](cfg Config[V], items []stream.Item[V]) (Stats, error) {
	if cfg.NewProcessor == nil {
		return Stats{}, errors.New("engine: Config.NewProcessor is required")
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = 1
	}
	ck := cfg.Checkpoint
	ckOn := ck.Interval > 0
	if ckOn {
		if ck.Dir == "" {
			return Stats{}, errors.New("engine: Checkpoint.Interval requires Checkpoint.Dir")
		}
		if cfg.Backpressure != ops.Block {
			// Replay offsets pin "every event before the barrier reached its
			// partition"; a policy that may drop pre-barrier events would
			// make recovery silently lossy in an unaccountable way.
			return Stats{}, fmt.Errorf("engine: Backpressure %v is incompatible with checkpointing (only ops.Block preserves replay alignment)", cfg.Backpressure)
		}
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return Stats{}, fmt.Errorf("engine: checkpoint dir: %w", err)
		}
	}
	if cfg.Sink != nil {
		if cfg.Sink.Deliver == nil {
			return Stats{}, errors.New("engine: Config.Sink requires SinkConfig.Deliver")
		}
		if cfg.Sink.DLQDir != "" {
			if err := os.MkdirAll(cfg.Sink.DLQDir, 0o755); err != nil {
				return Stats{}, fmt.Errorf("engine: dlq dir: %w", err)
			}
		}
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return Stats{}, fmt.Errorf("engine: spill dir: %w", err)
		}
		defer func() {
			//lint:ignore errflow spill blobs are scratch state; a failed sweep leaves garbage on disk, not lost results
			_ = os.RemoveAll(cfg.SpillDir)
		}()
	}
	restarts := ck.MaxRestarts
	if restarts == 0 && ckOn {
		restarts = 3
	}
	if restarts < 0 {
		restarts = 0
	}
	sleep := ck.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := ck.Backoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	var em *engineMetrics
	if cfg.Metrics != nil {
		em = newEngineMetrics(cfg.Metrics, par, cfg.Backpressure.String(), cfg.Sink != nil)
	}

	// maxEmitted tracks, per partition, the furthest point (in results since
	// the stream origin) any failed attempt reached — the high-water mark of
	// external side effects that replay suppression must cover.
	maxEmitted := make([]int64, par)
	// Breaker trips/recoveries accumulate across attempts: each attempt
	// builds fresh breakers, but the run's story is their sum.
	var trips, recoveries int64
	for attempt := 0; ; attempt++ {
		var rp *restorePoint
		var procs []Processor[V]
		if attempt > 0 && ckOn {
			rp, procs = pickRestart(cfg, par)
		}
		if procs == nil {
			rp = nil
			procs = make([]Processor[V], par)
			for p := range procs {
				procs[p] = cfg.NewProcessor(p)
			}
		}
		if attempt > 0 {
			for p, proc := range procs {
				tr, ok := proc.(ReplayTrimmer)
				if !ok {
					continue
				}
				base := int64(0)
				if rp != nil {
					base = rp.emitted[p]
				}
				if n := maxEmitted[p] - base; n > 0 {
					tr.TrimReplay(n)
				}
			}
		}

		res := runAttempt(cfg, items, procs, rp, em)
		trips += res.trips
		recoveries += res.recoveries
		if em != nil && em.breakerTrips != nil {
			em.breakerTrips.Add(res.trips)
			em.breakerRecoveries.Add(res.recoveries)
		}
		res.stats.Recoveries = attempt
		res.stats.BreakerTrips = trips
		res.stats.BreakerRecoveries = recoveries
		if res.fatal != nil {
			return res.stats, res.fatal
		}
		if res.perr == nil {
			return res.stats, nil
		}
		for p, n := range res.emitted {
			if n > maxEmitted[p] {
				maxEmitted[p] = n
			}
		}
		if ck.OnFailure != nil {
			ck.OnFailure(res.perr)
		}
		if attempt >= restarts {
			return res.stats, &RunError{Attempts: attempt + 1, Cause: res.perr}
		}
		if em != nil {
			em.recoveries.Inc()
		}
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		sleep(backoff << shift)
	}
}

// pickRestart finds the newest usable checkpoint: processors are rebuilt and
// restored candidate by candidate, newest first, so a checkpoint whose state
// fails to load falls back to its predecessor. It returns (nil, nil) when no
// checkpoint is usable or the processors cannot load state at all — the
// caller then replays from the stream origin with fresh processors.
func pickRestart[V any](cfg Config[V], par int) (*restorePoint, []Processor[V]) {
	for _, cand := range scanCheckpoints(cfg.Checkpoint.Dir, par) {
		procs := make([]Processor[V], par)
		ok := true
		for p := range procs {
			procs[p] = cfg.NewProcessor(p)
			sn, is := procs[p].(Snapshottable)
			if !is {
				return nil, nil
			}
			if err := sn.Restore(cand.states[p]); err != nil {
				ok = false
				break
			}
		}
		if ok {
			rp := cand
			return &rp, procs
		}
	}
	return nil, nil
}

// message is one channel element: a batch of items, a checkpoint barrier, or
// both never at once (barriers travel alone, after the triggering watermark).
type message[V any] struct {
	items   []stream.Item[V]
	barrier *barrier
}

// attemptResult is one processing attempt's outcome for the supervisor.
type attemptResult struct {
	stats      Stats
	perr       *PartitionError // restartable partition failure
	fatal      error           // checkpoint I/O or codec failure: not restartable
	emitted    []int64         // per-partition results since origin, at exit or crash
	trips      int64           // breaker trips during this attempt
	recoveries int64           // breaker recoveries during this attempt
}

// runAttempt executes one full pass of the pipeline: restored processors in,
// stats or a classified failure out.
func runAttempt[V any](cfg Config[V], items []stream.Item[V], procs []Processor[V], rp *restorePoint, em *engineMetrics) attemptResult {
	par := len(procs)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 256
	}
	queue := cfg.QueueLen
	if queue <= 0 {
		queue = 8
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	ck := cfg.Checkpoint
	ckOn := ck.Interval > 0
	writeFile := ck.WriteFile
	if writeFile == nil {
		writeFile = checkpoint.WriteFileAtomic
	}

	// Batch buffers cycle source → edge → worker → pool → source: each
	// buffer is owned by exactly one goroutine at a time, so the worker can
	// hand it back once the batch is consumed instead of the source
	// allocating a fresh backing array per flush. Dropped batches hand their
	// buffer back from the edge's OnDrop hook.
	bufPool := sync.Pool{New: func() any {
		s := make([]stream.Item[V], 0, batch)
		return &s
	}}
	getBuf := func() []stream.Item[V] {
		return (*bufPool.Get().(*[]stream.Item[V]))[:0]
	}
	putBuf := func(b []stream.Item[V]) {
		b = b[:0]
		bufPool.Put(&b)
	}

	// Disposition counters, in tuples. srcDropped is written only by the
	// source goroutine (edge OnDrop runs on the dropping sender); the w*
	// slices are written only by each partition's worker. wg.Wait orders all
	// of them before the final sum, so plain int64s suffice under -race.
	srcDropped := make([]int64, par)
	wProcessed := make([]int64, par)
	wDropped := make([]int64, par)
	wDead := make([]int64, par)
	if rp != nil {
		copy(wProcessed, rp.processed)
		copy(wDead, rp.dead)
	}

	// Partition edges: Block edges are plain channels (the classic hot
	// path); dropping policies get a bounded ring that may discard whole
	// event batches, each counted through OnDrop. Watermarks and barriers
	// travel via SendMust and are never droppable.
	edges := make([]*ops.Edge[message[V]], par)
	for i := range edges {
		p := i
		edges[i] = ops.NewEdge(ops.EdgeConfig[message[V]]{
			Capacity:     queue,
			Policy:       cfg.Backpressure,
			ShedLowWater: cfg.ShedLowWater,
			// Decorrelate the per-partition shed streams; NewEdge maps a
			// zero seed to its fixed default.
			Seed: cfg.ShedSeed + uint64(p)*0x9E3779B9,
			CanDrop: func(m message[V]) bool {
				return m.barrier == nil && len(m.items) > 0 && m.items[0].Kind == stream.KindEvent
			},
			OnDrop: func(m message[V]) {
				k := int64(len(m.items))
				srcDropped[p] += k
				if em != nil {
					em.dropped[p].Add(k)
				}
				putBuf(m.items)
			},
		})
	}

	var sinks []*sinkRuntime[V]
	if cfg.Sink != nil {
		sinks = make([]*sinkRuntime[V], par)
		for p := range sinks {
			sr, err := newSinkRuntime(cfg.Sink, p, em)
			if err != nil {
				for _, s := range sinks[:p] {
					//lint:ignore errflow unwinding a failed setup: the DLQ file has seen no writes yet
					_, _, _ = s.close()
				}
				return attemptResult{fatal: err, emitted: make([]int64, par)}
			}
			sinks[p] = sr
		}
	}

	// failed flips on the first worker death; the source checks it per item
	// and aborts dispatch instead of feeding a dead pipeline. Dead workers
	// keep draining their queue (counting the discards) so the source never
	// blocks on a full edge.
	var failed atomic.Bool
	wErr := make([]*PartitionError, par)
	wFatal := make([]error, par)
	emitted := make([]int64, par)
	if rp != nil {
		copy(emitted, rp.emitted)
	}
	tracker := &ckptTracker{par: par, acks: map[int]int{}}

	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			proc := procs[p]
			bp, _ := proc.(BatchProcessor[V])
			sn, _ := proc.(Snapshottable)
			reporter, _ := proc.(WindowEndReporter)
			var sink *sinkRuntime[V]
			if sinks != nil {
				sink = sinks[p]
			}
			observe := func(k int) {
				if em != nil && k > 0 && reporter != nil {
					nowMS := clock().UnixMilli()
					for _, end := range reporter.LastWindowEnds() {
						em.latency.Observe(float64(nowMS - end))
					}
				}
			}
			// drain empties the queue of this (now dead) partition so the
			// source never blocks on it, counting every discarded tuple.
			drain := func() {
				d := drainEdge(edges[p], putBuf)
				wDropped[p] += d
				if em != nil {
					em.drained[p].Add(d)
				}
			}
			// n counts results since the stream origin: restored runs resume
			// at the checkpoint's count so Stats.Results stays exact across
			// recoveries.
			n := emitted[p]
			defer func() {
				emitted[p] = n
				if r := recover(); r != nil {
					// Failure containment: the panic stays confined to this
					// partition, re-wrapped as a typed PartitionError for the
					// supervisor.
					wErr[p] = &PartitionError{Partition: p, Cause: r, Stack: debug.Stack()}
					failed.Store(true)
					drain()
				}
			}()
			for {
				m, ok := edges[p].Recv()
				if !ok {
					break
				}
				if len(m.items) > 0 {
					if sink != nil && m.items[0].Kind == stream.KindEvent {
						// Fallible egress gate: a permanently rejected batch
						// is dead-lettered and withheld from the operator.
						if err := sink.offer(m.items); err != nil {
							k := int64(len(m.items))
							wDead[p] += k
							if em != nil {
								em.deadLettered[p].Add(k)
							}
							ferr := sink.deadLetter(m.items, err)
							putBuf(m.items)
							if ferr != nil {
								wFatal[p] = ferr
								failed.Store(true)
								drain()
								return
							}
							continue
						}
					}
					if m.items[0].Kind == stream.KindEvent {
						wProcessed[p] += int64(len(m.items))
					}
					deliverBatch(proc, bp, m.items, &n, observe)
				}
				if m.items != nil {
					putBuf(m.items)
				}
				if m.barrier != nil && sn != nil {
					// Barrier alignment: snapshot exactly here, between two
					// batches, so the persisted state covers items[:offset]
					// and nothing else.
					t0 := clock()
					state, err := sn.Snapshot()
					if err != nil {
						wFatal[p] = fmt.Errorf("engine: checkpoint %d partition %d: %w", m.barrier.id, p, err)
						failed.Store(true)
						drain()
						return
					}
					data := encodeCkptFile(ckptFile{
						id: m.barrier.id, par: par, part: p,
						offset: m.barrier.offset, events: m.barrier.events,
						wm: m.barrier.wm, emitted: n,
						processed: wProcessed[p], dead: wDead[p],
						state: state,
					})
					if err := writeFile(ckptPath(ck.Dir, m.barrier.id, p), data); err != nil {
						wFatal[p] = fmt.Errorf("engine: checkpoint %d partition %d: %w", m.barrier.id, p, err)
						failed.Store(true)
						drain()
						return
					}
					if em != nil {
						em.ckptBytes.Observe(float64(len(data)))
						em.ckptDurMS.Observe(float64(clock().Sub(t0).Milliseconds()))
					}
					tracker.ack(m.barrier.id)
				}
			}
			if em != nil {
				em.results[p].Add(n - emitted[p])
			}
		}(p)
	}

	startCPU := processCPUTime()
	start := clock()

	// Source: route events by key hash, broadcast watermarks, and — at
	// checkpoint intervals — inject barriers after the aligning watermark.
	// Batches are flushed when full and before every watermark so ordering
	// between events, watermarks, and barriers is preserved per partition.
	// A restored run resumes at the checkpoint's offset with the
	// checkpoint's event count, so round-robin routing replays
	// deterministically.
	buffers := make([][]stream.Item[V], par)
	// send ships one batch; data batches go through the policy path (Send,
	// may drop), watermark batches through the control path (SendMust,
	// never dropped). The stall counter measures both: it is the time the
	// source spent inside the edge, which under Block is exactly the old
	// blocked-channel-send time.
	send := func(p int, b []stream.Item[V], data bool) {
		m := message[V]{items: b}
		if em == nil {
			if data {
				edges[p].Send(m)
			} else {
				edges[p].SendMust(m)
			}
			return
		}
		t0 := clock()
		if data {
			edges[p].Send(m)
		} else {
			edges[p].SendMust(m)
		}
		em.stallNS[p].Add(clock().Sub(t0).Nanoseconds())
		em.batches[p].Inc()
		em.occupancy.Observe(float64(len(b)))
	}
	flush := func(p int) {
		if len(buffers[p]) > 0 {
			send(p, buffers[p], true)
			buffers[p] = getBuf()
		}
	}
	for i := range buffers {
		buffers[i] = getBuf()
	}
	offset := 0
	events := int64(0)
	barrierID := 0
	lastBarrierWM := int64(0)
	haveBarrierWM := false
	if rp != nil {
		offset = rp.offset
		events = rp.events
		barrierID = rp.id
		lastBarrierWM = rp.wm
		haveBarrierWM = true
	}
	for _, it := range items[offset:] {
		if failed.Load() {
			break
		}
		offset++
		if it.Kind == stream.KindWatermark {
			for p := 0; p < par; p++ {
				flush(p)
				send(p, append(getBuf(), it), false)
			}
			if !ckOn {
				continue
			}
			if !haveBarrierWM {
				// The first watermark anchors the barrier schedule; the
				// stream origin is the implicit checkpoint zero.
				haveBarrierWM = true
				lastBarrierWM = it.Watermark
				continue
			}
			if it.Watermark-lastBarrierWM < ck.Interval {
				continue
			}
			lastBarrierWM = it.Watermark
			barrierID++
			b := barrier{id: barrierID, offset: offset, events: events, wm: it.Watermark}
			for p := 0; p < par; p++ {
				action := BarrierDeliver
				if ck.BarrierFault != nil {
					action = ck.BarrierFault(b.id, p)
				}
				switch action {
				case BarrierDrop:
				case BarrierDuplicate:
					edges[p].SendMust(message[V]{barrier: &b})
					edges[p].SendMust(message[V]{barrier: &b})
				default:
					edges[p].SendMust(message[V]{barrier: &b})
				}
			}
			tracker.gc(ck.Dir)
			continue
		}
		p := 0
		if par > 1 {
			if cfg.Key != nil {
				p = int(cfg.Key(it.Event) % uint64(par))
			} else {
				// Round-robin fallback: a nil Key used to route every
				// event to partition 0, silently serializing the run.
				p = int(events % int64(par))
			}
		}
		events++
		if em != nil {
			em.events[p].Inc()
		}
		buffers[p] = append(buffers[p], it)
		if len(buffers[p]) >= batch {
			flush(p)
		}
	}
	for p := 0; p < par; p++ {
		flush(p)
		edges[p].Close()
	}
	wg.Wait()
	if ckOn {
		tracker.gc(ck.Dir)
	}

	res := attemptResult{emitted: emitted}
	var results int64
	for _, n := range emitted {
		results += n
	}
	var processed, dropped, dead int64
	for p := 0; p < par; p++ {
		processed += wProcessed[p]
		dropped += srcDropped[p] + wDropped[p]
		dead += wDead[p]
	}
	maxQueue := 0
	for _, e := range edges {
		if m := e.MaxLen(); m > maxQueue {
			maxQueue = m
		}
	}
	res.stats = Stats{
		EventsIn:     events,
		Events:       processed,
		Dropped:      dropped,
		DeadLettered: dead,
		Results:      results,
		Elapsed:      clock().Sub(start),
		CPUTime:      processCPUTime() - startCPU,
		MaxQueueLen:  maxQueue,
	}
	for _, s := range sinks {
		t, r, err := s.close()
		res.trips += t
		res.recoveries += r
		if err != nil && res.fatal == nil {
			res.fatal = fmt.Errorf("engine: dlq close: %w", err)
		}
	}
	for p := 0; p < par; p++ {
		if wFatal[p] != nil && res.fatal == nil {
			res.fatal = wFatal[p]
		}
		if wErr[p] != nil && res.perr == nil {
			res.perr = wErr[p]
		}
	}
	if res.perr == nil && res.fatal == nil {
		// A clean attempt must balance its books exactly; an imbalance is a
		// counting bug, surfaced loudly instead of shipped silently.
		if err := res.stats.AccountingError(); err != nil {
			res.fatal = err
		}
	}
	return res
}

// drainEdge consumes the remaining queue of a dead partition so the source
// never blocks on it, returning the number of data tuples discarded; batch
// buffers still return to the pool.
func drainEdge[V any](e *ops.Edge[message[V]], putBuf func([]stream.Item[V])) int64 {
	var n int64
	for {
		m, ok := e.Recv()
		if !ok {
			return n
		}
		if len(m.items) > 0 && m.items[0].Kind == stream.KindEvent {
			n += int64(len(m.items))
		}
		if m.items != nil {
			putBuf(m.items)
		}
	}
}

// Cores returns the number of usable CPU cores.
func Cores() int { return runtime.NumCPU() }

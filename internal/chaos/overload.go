package chaos

// Overload harness: drives the engine's backpressure policies, sink guard,
// and dead-letter queue through sustained overload and sink failure, and
// checks the one invariant every technique must keep:
//
//	events_in == events_processed + events_dropped + events_dead_lettered
//
// Three techniques model the failure shapes the ops layer exists for:
//
//   - slow-sink: the sink stays healthy but slow, so partition queues run
//     full for the whole stream. Block must stall losslessly; the dropping
//     policies must bound resident queue memory and account every drop.
//   - flapping-sink: the sink rejects a contiguous window of deliveries,
//     tripping the circuit breaker, then heals so the half-open probe
//     recovers it. Rejected batches are dead-lettered durably.
//   - overload-burst: the source outruns a moderately slow sink, building
//     exactly the occupancy ramp ops.Shed is designed to flatten.

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"scotty/internal/benchutil"
	"scotty/internal/engine"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/stream"
)

// OverloadTechnique selects one overload failure shape.
type OverloadTechnique string

const (
	// SlowSinkStall keeps the sink healthy but slow (150us per batch), so
	// the tightly capped partition queues are saturated for the whole run.
	SlowSinkStall OverloadTechnique = "slow-sink"
	// FlappingSink rejects deliveries 40..43 of every partition, tripping
	// the circuit breaker; later deliveries succeed, so the half-open probe
	// must close it again. Requires a DLQDir.
	FlappingSink OverloadTechnique = "flapping-sink"
	// OverloadBurst lets the pre-generated source outrun a moderately slow
	// sink (60us per batch), ramping queue occupancy through ops.Shed's
	// low-water mark.
	OverloadBurst OverloadTechnique = "overload-burst"
)

// OverloadTechniques returns every overload technique, for table tests.
func OverloadTechniques() []OverloadTechnique {
	return []OverloadTechnique{SlowSinkStall, FlappingSink, OverloadBurst}
}

const (
	slowSinkDelay  = 150 * time.Microsecond
	burstSinkDelay = 60 * time.Microsecond
	// dlqPaceDelay slows each dead-letter append so the open breaker's
	// fast-fail drain cannot burn through the remaining stream before the
	// cooldown elapses — without it the recovery probe would race stream
	// exhaustion.
	dlqPaceDelay = 50 * time.Microsecond
	// flapFailFrom..flapFailTo-1 are the per-partition Deliver calls the
	// flapping sink rejects: ~25% into the stream, leaving plenty of
	// healthy tail for the breaker to recover into.
	flapFailFrom = 40
	flapFailTo   = 44
)

// OverloadOptions configures one overload run. Zero values select defaults
// chosen so the default run genuinely overloads: the queue bound
// (QueueLen x BatchSize = 256 items) is far below what a 150us/batch sink
// sustains against a pre-generated source.
type OverloadOptions struct {
	Technique OverloadTechnique
	Policy    ops.Policy // backpressure policy under test (ops.Block zero value)
	Events    int        // data tuples to generate; 0 selects 20000
	Par       int        // partitions; 0 selects 2
	Seed      int64      // generator / disorder seed
	QueueLen  int        // edge capacity in batches; 0 selects a tight 4
	BatchSize int        // items per batch; 0 selects 64
	// DLQDir captures dead-lettered batches durably (one file per
	// partition, read back into the result). Required for FlappingSink.
	DLQDir string
	// Metrics, when non-nil, receives the engine's drop/shed counters,
	// breaker gauges, and retry histograms.
	Metrics *obs.Registry
}

// OverloadResult is the observable outcome of an overload run. Breaker trips
// and recoveries are inside Stats; the DLQ fields are read back from the
// DLQDir files after the run, so asserting DLQEvents == Stats.DeadLettered
// proves the durable capture matched the accounting.
type OverloadResult struct {
	Stats      engine.Stats
	Log        *Log
	DLQRecords int   // framed records across all partition DLQ files
	DLQEvents  int64 // sum of the records' event counts
}

// RunOverload executes one overload technique under one backpressure policy
// and returns what an external observer saw. The run is clean (no crash
// schedule, no checkpointing — the dropping policies are incompatible with
// checkpointing by design) over the lazy-slicing operator; overload behavior
// is a property of the edges and the sink guard, not of the windowing
// technique.
func RunOverload(o OverloadOptions) (OverloadResult, error) {
	if o.Events == 0 {
		o.Events = 20000
	}
	if o.Par == 0 {
		o.Par = 2
	}
	if o.QueueLen == 0 {
		o.QueueLen = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	if o.Technique == FlappingSink && o.DLQDir == "" {
		return OverloadResult{}, fmt.Errorf("chaos: %s requires a DLQDir: rejected batches must be captured durably", o.Technique)
	}
	sink, err := overloadSink(o)
	if err != nil {
		return OverloadResult{}, err
	}

	tq := benchutil.LazySlicing
	if _, err := newOperator(tq, ""); err != nil {
		return OverloadResult{}, err
	}
	in := input(tq, o.Events, o.Seed)

	log := NewLog(o.Par)
	crash := newCrashState(nil)
	cfg := engine.Config[stream.Tuple]{
		Parallelism: o.Par,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) engine.Processor[stream.Tuple] {
			//lint:ignore errflow the technique was validated by newOperator before the run started; rebuilding it for a partition cannot fail differently
			op, _ := newOperator(tq, "") // validated above
			return &proc{part: p, op: op, log: log, crash: crash}
		},
		BatchSize:    o.BatchSize,
		QueueLen:     o.QueueLen,
		Backpressure: o.Policy,
		Sink:         sink,
		Metrics:      o.Metrics,
	}
	stats, err := engine.Run(cfg, in.Items)
	if err != nil {
		return OverloadResult{}, err
	}
	res := OverloadResult{Stats: stats, Log: log}
	if o.DLQDir != "" {
		for p := 0; p < o.Par; p++ {
			recs, err := ops.ReadDLQ(engine.DLQFile(o.DLQDir, p))
			if err != nil {
				return OverloadResult{}, fmt.Errorf("chaos: reading partition %d DLQ: %w", p, err)
			}
			res.DLQRecords += len(recs)
			for _, r := range recs {
				res.DLQEvents += int64(r.Count)
			}
		}
	}
	return res, nil
}

// overloadSink builds the SinkConfig that realizes one overload technique.
func overloadSink(o OverloadOptions) (*engine.SinkConfig[stream.Tuple], error) {
	sleepSink := func(d time.Duration) *engine.SinkConfig[stream.Tuple] {
		return &engine.SinkConfig[stream.Tuple]{
			Deliver: func(int, []stream.Item[stream.Tuple]) error {
				time.Sleep(d)
				return nil
			},
			DLQDir: o.DLQDir,
		}
	}
	switch o.Technique {
	case SlowSinkStall:
		return sleepSink(slowSinkDelay), nil
	case OverloadBurst:
		return sleepSink(burstSinkDelay), nil
	case FlappingSink:
		calls := make([]atomic.Int64, o.Par)
		return &engine.SinkConfig[stream.Tuple]{
			Deliver: func(p int, items []stream.Item[stream.Tuple]) error {
				n := calls[p].Add(1)
				if n >= flapFailFrom && n < flapFailTo {
					return fmt.Errorf("chaos: flapping sink rejecting delivery %d of partition %d", n, p)
				}
				return nil
			},
			// Two fast attempts per batch and a 3-failure trip: the
			// 4-call failure window guarantees a trip, and the healthy
			// tail guarantees the post-cooldown probe recovers.
			Retry:   ops.RetryConfig{MaxAttempts: 2, Sleep: func(time.Duration) {}},
			Breaker: ops.BreakerConfig{Threshold: 3, Cooldown: 300 * time.Microsecond},
			Encode: func(items []stream.Item[stream.Tuple]) ([]byte, error) {
				time.Sleep(dlqPaceDelay)
				return json.Marshal(items)
			},
			DLQDir: o.DLQDir,
		}, nil
	}
	return nil, fmt.Errorf("chaos: unknown overload technique %q", o.Technique)
}

package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scotty/internal/stream"
)

// mustRun is the test harness for configs that are expected to succeed.
func mustRun(t testing.TB, cfg Config[stream.Tuple], items []stream.Item[stream.Tuple]) Stats {
	t.Helper()
	stats, err := Run(cfg, items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func makeItems(n int, keys int) []stream.Item[stream.Tuple] {
	items := make([]stream.Item[stream.Tuple], 0, n+n/100+1)
	for i := 0; i < n; i++ {
		e := stream.Event[stream.Tuple]{
			Time: int64(i), Seq: int64(i),
			Value: stream.Tuple{Key: int32(i % keys), V: float64(i)},
		}
		items = append(items, stream.EventItem(e))
		if i%100 == 99 {
			items = append(items, stream.WatermarkItem[stream.Tuple](int64(i-10)))
		}
	}
	items = append(items, stream.WatermarkItem[stream.Tuple](stream.MaxTime))
	return items
}

func TestParallelismPreservesEventsAndResults(t *testing.T) {
	items := makeItems(10_000, 8)
	run := func(par int) (int64, Stats) {
		var results atomic.Int64
		stats := mustRun(t, Config[stream.Tuple]{
			Parallelism: par,
			Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
			NewProcessor: func(p int) Processor[stream.Tuple] {
				return ProcessorFunc[stream.Tuple](func(it stream.Item[stream.Tuple]) int {
					if it.Kind == stream.KindEvent {
						results.Add(1)
						return 1
					}
					return 0
				})
			},
		}, items)
		return results.Load(), stats
	}
	for _, par := range []int{1, 2, 4} {
		n, stats := run(par)
		if n != 10_000 {
			t.Fatalf("par=%d: processed %d events, want 10000", par, n)
		}
		if stats.Events != 10_000 || stats.Results != 10_000 {
			t.Fatalf("par=%d: stats %+v", par, stats)
		}
	}
}

func TestKeyRouting(t *testing.T) {
	items := makeItems(5_000, 16)
	const par = 4
	var mu sync.Mutex
	keysPerPartition := make([]map[int32]bool, par)
	mustRun(t, Config[stream.Tuple]{
		Parallelism: par,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) Processor[stream.Tuple] {
			seen := map[int32]bool{}
			mu.Lock()
			keysPerPartition[p] = seen
			mu.Unlock()
			return ProcessorFunc[stream.Tuple](func(it stream.Item[stream.Tuple]) int {
				if it.Kind == stream.KindEvent {
					seen[it.Event.Value.Key] = true
				}
				return 0
			})
		},
	}, items)
	all := map[int32]int{}
	for _, seen := range keysPerPartition {
		for k := range seen {
			all[k]++
		}
	}
	if len(all) != 16 {
		t.Fatalf("keys seen: %d want 16", len(all))
	}
	for k, n := range all {
		if n != 1 {
			t.Fatalf("key %d processed by %d partitions", k, n)
		}
	}
}

// TestBatchProcessorReceivesWholeBatches pins the batch handoff: a processor
// implementing BatchProcessor must see channel batches whole (far fewer calls
// than items) and still observe every event exactly once.
func TestBatchProcessorReceivesWholeBatches(t *testing.T) {
	items := makeItems(10_000, 8)
	var events, calls atomic.Int64
	stats := mustRun(t, Config[stream.Tuple]{
		Parallelism: 2,
		BatchSize:   128,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) Processor[stream.Tuple] {
			return BatchProcessorFunc[stream.Tuple](func(b []stream.Item[stream.Tuple]) int {
				calls.Add(1)
				n := 0
				for _, it := range b {
					if it.Kind == stream.KindEvent {
						events.Add(1)
						n++
					}
				}
				return n
			})
		},
	}, items)
	if events.Load() != 10_000 || stats.Results != 10_000 {
		t.Fatalf("events=%d stats=%+v", events.Load(), stats)
	}
	if c := calls.Load(); c >= int64(len(items)) {
		t.Fatalf("batch processor called %d times for %d items — batches not delivered whole", c, len(items))
	}
}

func TestWatermarksBroadcastInOrderPerPartition(t *testing.T) {
	items := makeItems(3_000, 4)
	const par = 3
	var violations atomic.Int64
	var wms [par]atomic.Int64
	mustRun(t, Config[stream.Tuple]{
		Parallelism: par,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) Processor[stream.Tuple] {
			lastWM := int64(stream.MinTime)
			return ProcessorFunc[stream.Tuple](func(it stream.Item[stream.Tuple]) int {
				if it.Kind == stream.KindWatermark {
					if it.Watermark < lastWM {
						violations.Add(1)
					}
					lastWM = it.Watermark
					wms[p].Add(1)
					return 0
				}
				// An event must never arrive at or behind the partition's
				// last watermark (the source flushes before broadcasting).
				if it.Event.Time <= lastWM && lastWM != stream.MinTime {
					violations.Add(1)
				}
				return 0
			})
		},
	}, items)
	if violations.Load() != 0 {
		t.Fatalf("%d ordering violations", violations.Load())
	}
	for p := 0; p < par; p++ {
		if wms[p].Load() == 0 {
			t.Fatalf("partition %d received no watermarks", p)
		}
	}
}

// TestInjectedClockMakesStatsDeterministic drives Run with a fake clock and
// asserts the timing-derived stats are an exact function of its ticks: a
// wall-clock read anywhere on Run's path breaks it.
func TestInjectedClockMakesStatsDeterministic(t *testing.T) {
	items := makeItems(1_000, 4)
	base := time.Unix(0, 0)
	var ticks atomic.Int64
	stats := mustRun(t, Config[stream.Tuple]{
		Parallelism: 2,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) Processor[stream.Tuple] {
			return ProcessorFunc[stream.Tuple](func(it stream.Item[stream.Tuple]) int { return 1 })
		},
		Clock: func() time.Time {
			return base.Add(time.Duration(ticks.Add(1)) * time.Second)
		},
	}, items)
	// Run reads the clock exactly twice: once at start, once at the end.
	if stats.Elapsed != time.Second {
		t.Fatalf("Elapsed = %v, want exactly 1s from the fake clock", stats.Elapsed)
	}
	if stats.Throughput() != 1000 {
		t.Fatalf("Throughput = %v, want exactly 1000 events/s", stats.Throughput())
	}
}

func TestStatsThroughput(t *testing.T) {
	s := Stats{Events: 1000, Elapsed: 2e9}
	if s.Throughput() != 500 {
		t.Fatalf("throughput %v", s.Throughput())
	}
	if (Stats{}).Throughput() != 0 {
		t.Fatal("zero elapsed must not divide by zero")
	}
}

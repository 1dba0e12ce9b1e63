package engine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"scotty/internal/ops"
	"scotty/internal/stream"
)

// requireGoroutinesSettle fails t unless runtime.NumGoroutine() comes back
// down to before. Goroutines that are already returning get a few seconds
// to finish; one that never returns is reported with every stack.
func requireGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Run returned, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines: once Run returns, every goroutine it started
// has exited — on a plain run, across a crash and a restore from
// checkpoints, under Shed overload, and with a sink that dead-letters. A
// partition worker that outlived its attempt would race the next attempt's
// processors and keep its edge and batch buffers alive.
func TestRunLeavesNoGoroutines(t *testing.T) {
	proc := func(p int) Processor[stream.Tuple] {
		return ProcessorFunc[stream.Tuple](func(stream.Item[stream.Tuple]) int { return 0 })
	}
	cases := []struct {
		name  string
		cfg   func(t *testing.T) Config[stream.Tuple]
		check func(t *testing.T, s Stats)
	}{
		{"plain", func(t *testing.T) Config[stream.Tuple] {
			return Config[stream.Tuple]{Parallelism: 2, NewProcessor: proc}
		}, func(t *testing.T, s Stats) {}},
		{"crash-restore", func(t *testing.T) Config[stream.Tuple] {
			return recoveryConfig(t.TempDir(), 2, &resultLog{}, newCrashPlan(2, map[int]int64{1: 4_000}))
		}, func(t *testing.T, s Stats) {
			if s.Recoveries != 1 {
				t.Fatalf("recoveries = %d, want 1", s.Recoveries)
			}
		}},
		{"shed", func(t *testing.T) Config[stream.Tuple] {
			return Config[stream.Tuple]{
				Parallelism: 2, BatchSize: 32, QueueLen: 2, Backpressure: ops.Shed,
				NewProcessor: func(p int) Processor[stream.Tuple] {
					return BatchProcessorFunc[stream.Tuple](func([]stream.Item[stream.Tuple]) int {
						time.Sleep(100 * time.Microsecond)
						return 0
					})
				},
			}
		}, func(t *testing.T, s Stats) {
			if s.Dropped == 0 {
				t.Fatal("Shed under overload dropped nothing")
			}
		}},
		{"dead-letter", func(t *testing.T) Config[stream.Tuple] {
			return Config[stream.Tuple]{
				Parallelism: 2, BatchSize: 64, NewProcessor: proc,
				Sink: &SinkConfig[stream.Tuple]{
					Deliver: func(p int, items []stream.Item[stream.Tuple]) error {
						if ts := items[0].Event.Time; ts >= 4000 && ts < 6000 {
							return errors.New("rejecting the 4000..6000 range")
						}
						return nil
					},
					Retry:   ops.RetryConfig{MaxAttempts: 1},
					Breaker: ops.BreakerConfig{Threshold: 1 << 30},
					DLQDir:  t.TempDir(),
				},
			}
		}, func(t *testing.T, s Stats) {
			if s.DeadLettered == 0 {
				t.Fatal("rejection range dead-lettered nothing")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			before := runtime.NumGoroutine()
			c.check(t, mustRun(t, cfg, makeItems(10_000, 8)))
			requireGoroutinesSettle(t, before)
		})
	}
}

package chaos

import (
	"fmt"
	"strings"
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/reference"
	"scotty/internal/stream"
)

// overloadPolicies is the full backpressure matrix every overload technique
// runs under.
var overloadPolicies = []ops.Policy{ops.Block, ops.DropOldest, ops.DropNewest, ops.Shed}

// TestOverloadMatrix drives every overload technique under every
// backpressure policy and checks the harness's core claims: the
// no-silent-loss invariant holds in every cell, resident queue memory stays
// within the configured bound, Block never drops, the dropping policies
// actually drop under sustained pressure, and the flapping sink's breaker
// demonstrably trips AND recovers with every rejected batch captured in the
// DLQ.
func TestOverloadMatrix(t *testing.T) {
	for _, tech := range OverloadTechniques() {
		for _, pol := range overloadPolicies {
			tech, pol := tech, pol
			t.Run(fmt.Sprintf("%s/%s", tech, pol), func(t *testing.T) {
				t.Parallel()
				reg := obs.NewRegistry()
				o := OverloadOptions{
					Technique: tech,
					Policy:    pol,
					Seed:      7,
					DLQDir:    t.TempDir(),
					Metrics:   reg,
				}
				res, err := RunOverload(o)
				if err != nil {
					t.Fatalf("overload run: %v", err)
				}
				s := res.Stats

				// The invariant, in every cell of the matrix.
				if err := s.AccountingError(); err != nil {
					t.Fatalf("accounting: %v", err)
				}
				if s.EventsIn == 0 || s.Results == 0 {
					t.Fatalf("run proved nothing: EventsIn=%d Results=%d", s.EventsIn, s.Results)
				}

				// Bounded resident queue memory, witnessed by the engine's
				// per-edge high-water mark (QueueLen defaulted to 4).
				if s.MaxQueueLen > 4 {
					t.Fatalf("queue high-water %d exceeds configured bound 4", s.MaxQueueLen)
				}

				// Durable capture must match the accounting exactly.
				if res.DLQEvents != s.DeadLettered {
					t.Fatalf("DLQ captured %d events, stats dead-lettered %d", res.DLQEvents, s.DeadLettered)
				}

				// Per-policy drop semantics.
				if pol == ops.Block {
					if s.Dropped != 0 {
						t.Fatalf("Block dropped %d events", s.Dropped)
					}
					if s.Events+s.DeadLettered != s.EventsIn {
						t.Fatalf("Block lost events: in=%d processed=%d dead=%d", s.EventsIn, s.Events, s.DeadLettered)
					}
				} else if tech != FlappingSink && s.Dropped == 0 {
					// The slow and bursty sinks saturate the tight queues
					// for the whole run; a dropping policy that never
					// dropped was not actually exercised. (The flapping
					// sink is fast when healthy, so no drop claim there.)
					t.Fatalf("%s dropped nothing under sustained overload", pol)
				}
				if dropMetric := metricTotal(reg, "engine_events_dropped_total"); dropMetric != s.Dropped {
					t.Fatalf("engine_events_dropped_total=%d, Stats.Dropped=%d", dropMetric, s.Dropped)
				}

				// Breaker lifecycle under the flapping sink: it must trip
				// on the failure window and recover into the healthy tail.
				if tech == FlappingSink {
					if s.BreakerTrips == 0 {
						t.Fatalf("flapping sink never tripped the breaker")
					}
					if s.BreakerRecoveries == 0 {
						t.Fatalf("breaker tripped %d times but never recovered", s.BreakerTrips)
					}
					if s.DeadLettered == 0 || res.DLQRecords == 0 {
						t.Fatalf("flapping sink dead-lettered nothing (stats=%d, records=%d)", s.DeadLettered, res.DLQRecords)
					}
				} else {
					if s.DeadLettered != 0 || s.BreakerTrips != 0 {
						t.Fatalf("healthy sink dead-lettered %d / tripped %d", s.DeadLettered, s.BreakerTrips)
					}
				}
			})
		}
	}
}

// metricTotal sums one counter name across all labeled series in reg.
func metricTotal(reg *obs.Registry, name string) int64 {
	var total int64
	for _, s := range reg.Snapshot() {
		if s.Value != nil && (s.Name == name || strings.HasPrefix(s.Name, name+"{")) {
			total += *s.Value
		}
	}
	return total
}

// sequentialOracle replays the exact engine input through one single-threaded
// operator per partition, mirroring the engine's routing contract (equal keys
// mod partition count; watermarks broadcast in stream order). Its log is what
// any correct engine configuration that loses nothing must produce.
func sequentialOracle(t *testing.T, tq benchutil.Technique, items []stream.Item[stream.Tuple], par int) *Log {
	t.Helper()
	ops := make([]*benchutil.Rows, par)
	for p := range ops {
		op, err := newOperator(tq, "")
		if err != nil {
			t.Fatalf("oracle operator: %v", err)
		}
		ops[p] = op
	}
	log := NewLog(par)
	for _, it := range items {
		for p, op := range ops {
			if it.Kind == stream.KindEvent && p != int(uint64(it.Event.Value.Key)%uint64(par)) {
				continue
			}
			for _, r := range op.Element(it) {
				log.append(p, r)
			}
		}
	}
	return log
}

// TestBlockEquivalentToSequentialOracle is the refactor's identity proof:
// the ops-edged engine under the default Block policy emits, per partition,
// byte-identical results to a sequential oracle with no engine at all —
// across slicing techniques, a keyed operator, and a baseline.
func TestBlockEquivalentToSequentialOracle(t *testing.T) {
	techs := []benchutil.Technique{
		benchutil.LazySlicing,
		benchutil.EagerSlicing,
		benchutil.DABASlicing,
		benchutil.Buckets,
		benchutil.Keyed,
	}
	for _, tq := range techs {
		tq := tq
		t.Run(string(tq), func(t *testing.T) {
			t.Parallel()
			const events, par, seed = 6000, 3, 11
			got, err := Run(Options{Technique: tq, Events: events, Par: par, Seed: seed})
			if err != nil {
				t.Fatalf("engine run: %v", err)
			}
			want := sequentialOracle(t, tq, input(tq, events, seed).Items, par)
			for p := 0; p < par; p++ {
				if d := reference.Diff(want.Partition(p), got.Log.Partition(p), nil); d != "" {
					t.Fatalf("partition %d diverged from oracle: %s", p, d)
				}
			}
		})
	}
}

// TestDropPoliciesIdentityWithoutPressure pins the other side of the policy
// contract: when the queue bound is far above what the run needs, DropOldest,
// DropNewest, and Shed never engage, and their output is byte-identical to
// Block's — the policies are strictly overload behaviors, not semantic
// changes.
func TestDropPoliciesIdentityWithoutPressure(t *testing.T) {
	base := OverloadOptions{
		Technique: OverloadBurst,
		Events:    8000,
		Seed:      3,
		QueueLen:  4096,
	}
	clean, err := RunOverload(base) // Policy zero value is ops.Block
	if err != nil {
		t.Fatalf("block run: %v", err)
	}
	for _, pol := range []ops.Policy{ops.DropOldest, ops.DropNewest, ops.Shed} {
		o := base
		o.Policy = pol
		got, err := RunOverload(o)
		if err != nil {
			t.Fatalf("%s run: %v", pol, err)
		}
		if got.Stats.Dropped != 0 {
			t.Fatalf("%s dropped %d events with a 4096-batch queue", pol, got.Stats.Dropped)
		}
		if got.Stats.Events != clean.Stats.Events || got.Stats.Results != clean.Stats.Results {
			t.Fatalf("%s stats diverged: events %d vs %d, results %d vs %d",
				pol, got.Stats.Events, clean.Stats.Events, got.Stats.Results, clean.Stats.Results)
		}
		for p := 0; p < got.Log.Partitions(); p++ {
			if d := reference.Diff(clean.Log.Partition(p), got.Log.Partition(p), nil); d != "" {
				t.Fatalf("%s partition %d output diverged from Block: %s", pol, p, d)
			}
		}
	}
}

package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"scotty/internal/benchutil"
	"scotty/internal/core"
	"scotty/internal/obs"
	"scotty/internal/spill"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// membPerKey is the tuple budget per key. It sets the ratio between per-tuple
// aggregation work and per-key spill I/O: every key beyond the resident set
// costs one blob write, amortized over its membPerKey tuples.
const membPerKey = 64

// membKeys is the key-cardinality sweep (the figure's horizontal axis),
// capped by the scale: quick stops at 10^4 so the CI smoke leg stays in the
// sub-second range, full at 10^6 (see Scale.MaxKeys).
func (sc Scale) membKeys() []int {
	all := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	out := all[:0:0]
	for _, n := range all {
		if n <= sc.MaxKeys {
			out = append(out, n)
		}
	}
	return out
}

// membRun is the observable outcome of one replay.
type membRun struct {
	tps      float64
	results  int64
	events   int
	resident int64 // estimated live per-key state bytes at end of run
	cold     int   // keys spilled at end of run
	stores   int64 // spill blob writes over the run
	loads    int64 // re-hydrations over the run
}

// runMembound replays the membound workload against one keyed operator:
// the key space activates in drifting blocks of 1% of the keys (min 16),
// each key receiving membPerKey tuples, with one watermark per block. Every
// key aggregates exactly one tumbling window, which the block-boundary
// watermark emits while the key is still recent — so under a budget the LRU
// spills only keys that are done emitting, and correctness never forces a
// re-load.
//
// budget <= 0 is the unbounded baseline: the same per-key operators under a
// budget that never binds (math.MaxInt64). The spill tier is enabled there
// too because it decides the operator's representation — without it,
// core.NewKeyed would keep this query set on one shared slice ring, and the
// figure would compare two state layouts instead of pricing the budget.
func runMembound(keys int, budget int64) (membRun, error) {
	if budget <= 0 {
		budget = math.MaxInt64
	}
	hot := keys / 100
	if hot < 16 {
		hot = 16
	}
	if hot > keys {
		hot = keys
	}
	span := int64(hot) * membPerKey // ms; tumbling length == block span

	newOp := func() *core.Aggregator[stream.Tuple, float64, float64] {
		// Window definitions carry trigger-cursor state, so every per-key
		// operator needs fresh instances (see core.NewKeyed). Lateness 1
		// keeps a block's first tuple, which lands exactly on the previous
		// block's watermark, out of the late-drop band.
		ag := core.New(benchutil.SumFn(), core.Options{Lateness: 1})
		ag.MustAddQuery(window.Tumbling(stream.Time, span))
		return ag
	}
	k := core.NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 0, newOp)

	dir, err := os.MkdirTemp("", "membound-spill-")
	if err != nil {
		return membRun{}, err
	}
	defer func() {
		//lint:ignore errflow spill blobs are scratch; a failed sweep leaves temp-dir garbage, not results
		_ = os.RemoveAll(dir)
	}()
	st, err := spill.Open(dir)
	if err != nil {
		return membRun{}, err
	}
	reg := obs.NewRegistry()
	if err := k.EnableSpill(core.SpillConfig{Budget: budget, Store: st, Metrics: reg}); err != nil {
		return membRun{}, err
	}

	blocks := (keys + hot - 1) / hot
	var r membRun
	start := time.Now()
	for b := 0; b < blocks; b++ {
		base := b * hot
		width := hot
		if base+width > keys {
			width = keys - base
		}
		t := int64(b) * span
		for j := 0; j < width*membPerKey; j++ {
			e := stream.Event[stream.Tuple]{
				Time: t, Seq: int64(r.events),
				Value: stream.Tuple{Key: int32(base + j%width), V: float64(j % 97)},
			}
			r.results += int64(len(k.ProcessElement(e)))
			r.events++
			t++
		}
		// The block-boundary watermark emits the block's windows and runs
		// budget enforcement (spilling happens at watermark granularity).
		r.results += int64(len(k.ProcessWatermark(int64(b+1) * span)))
	}
	// A trailing watermark past the allowed lateness evicts the last
	// block's slices, so the residency estimate below sees every live
	// operator in the same post-emission state.
	r.results += int64(len(k.ProcessWatermark(int64(blocks)*span + span + 1)))
	elapsed := time.Since(start)
	if elapsed > 0 {
		r.tps = float64(r.events) / elapsed.Seconds()
	}
	r.resident = k.ResidentBytesEstimate()
	_, r.cold, _ = k.SpillStats()
	r.stores = reg.Counter("core_spill_stores_total").Value()
	r.loads = reg.Counter("core_spill_loads_total").Value()
	if dropped := k.Stats().Dropped; dropped != 0 {
		return membRun{}, fmt.Errorf("membound: %d tuples dropped as late from an in-order stream", dropped)
	}
	return r, nil
}

// FigMemBound — cold-state spilling (docs/MEMORY.md): per-key state of one
// keyed operator with and without a binding memory budget, across key
// cardinalities (both series on the per-key representation, see runMembound).
// The bounded series runs at 10% of the unbounded run's measured residency;
// scripts/checkbench.go gates the recorded artifact (BENCH_membound.json) on
// the bounded series staying under its budget at every cardinality while
// sustaining at least half the unbounded throughput at the largest one.
func FigMemBound(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig membound — keyed state under a memory budget vs key cardinality",
		"keys", "unbounded t/s", "bounded t/s", "ratio",
		"resident B", "bounded B", "budget B", "cold", "stores", "loads")
	for _, keys := range sc.membKeys() {
		un, err := runMembound(keys, 0)
		if err != nil {
			return err
		}
		benchutil.RecordPoint(benchutil.Measurement{
			Series: "unbounded", X: keys, TuplesPerSec: un.tps, Results: un.results, Events: un.events,
		})
		benchutil.AnnotateLast(map[string]float64{"resident_bytes": float64(un.resident)})

		budget := un.resident / 10
		bo, err := runMembound(keys, budget)
		if err != nil {
			return err
		}
		if bo.results != un.results {
			return fmt.Errorf("membound: bounded run emitted %d results at %d keys, unbounded %d — spilling changed the answer",
				bo.results, keys, un.results)
		}
		benchutil.RecordPoint(benchutil.Measurement{
			Series: "bounded", X: keys, TuplesPerSec: bo.tps, Results: bo.results, Events: bo.events,
		})
		benchutil.AnnotateLast(map[string]float64{
			"resident_bytes":     float64(bo.resident),
			"budget":             float64(budget),
			"keys_spilled":       float64(bo.cold),
			"spill_stores_total": float64(bo.stores),
			"spill_loads_total":  float64(bo.loads),
		})

		ratio := 0.0
		if un.tps > 0 {
			ratio = bo.tps / un.tps
		}
		tab.Add(keys, un.tps, bo.tps, ratio, un.resident, bo.resident, budget, bo.cold, bo.stores, bo.loads)
	}
	tab.Print(w)
	return nil
}

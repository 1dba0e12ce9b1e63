package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// collectSequential drains items through the per-element/per-watermark API.
func collectSequential[A, O any](ag *Aggregator[float64, A, O], items []stream.Item[float64]) []Result[O] {
	var out []Result[O]
	for _, it := range items {
		if it.Kind == stream.KindEvent {
			out = append(out, ag.ProcessElement(it.Event)...)
		} else {
			out = append(out, ag.ProcessWatermark(it.Watermark)...)
		}
	}
	return out
}

// collectBatched drains items through ProcessBatch in chunks of size bs.
func collectBatched[A, O any](ag *Aggregator[float64, A, O], items []stream.Item[float64], bs int) []Result[O] {
	var out []Result[O]
	for i := 0; i < len(items); i += bs {
		j := i + bs
		if j > len(items) {
			j = len(items)
		}
		out = append(out, ag.ProcessBatch(items[i:j])...)
	}
	return out
}

// batchSizes are the chunkings every equivalence stream is replayed at.
// whole-stream is appended per trial (depends on the stream length).
var batchSizes = []int{1, 7, 256}

// compareResultRuns asserts two result sequences are identical: same length,
// same spans, flags and counts in the same order, approximately equal values.
func compareResultRuns(t *testing.T, label string, base, got []Result[float64]) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("%s: emitted %d results, per-element path emitted %d", label, len(got), len(base))
	}
	for i := range base {
		b, g := base[i], got[i]
		if b.Query != g.Query || b.Measure != g.Measure || b.Start != g.Start ||
			b.End != g.End || b.N != g.N || b.Update != g.Update {
			t.Fatalf("%s: result %d metadata diverged: got %+v want %+v", label, i, g, b)
		}
		if !approx(b.Value, g.Value) {
			t.Fatalf("%s: result %d value diverged: got %v want %v (window [%d,%d))",
				label, i, g.Value, b.Value, b.Start, b.End)
		}
	}
}

// TestBatchTupleEquivalenceRandom replays randomized workloads — mixed window
// types, measures, eager/lazy stores, ordered and disordered streams with
// interleaved watermarks — through ProcessBatch at several batch sizes and
// requires the exact result sequence of the per-element path.
func TestBatchTupleEquivalenceRandom(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			runBatchEquivalenceTrial(t, int64(trial))
		})
	}
}

func runBatchEquivalenceTrial(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*104729 + 7))

	ordered := rng.Intn(3) == 0
	eager := rng.Intn(2) == 0
	commutative := rng.Intn(4) != 0 // 1 in 4 trials exercises the strict (order-sensitive) prefix rule
	var d stream.Disorder
	if !ordered {
		d = stream.Disorder{
			Fraction: 0.05 + 0.5*rng.Float64(),
			MaxDelay: int64(100 + rng.Intn(900)),
			Seed:     seed + 2000,
		}
	}
	countRegime := rng.Intn(3) == 0

	// Window definitions are stateful (periodic windows track their next
	// trigger), so each aggregator needs fresh instances: the pool holds
	// factories, not definitions.
	var defs []func() window.Definition
	if countRegime {
		ctl, csl, css := int64(20+rng.Intn(200)), int64(30+rng.Intn(100)), int64(10+rng.Intn(50))
		defs = []func() window.Definition{
			func() window.Definition { return window.Tumbling(stream.Count, ctl) },
			func() window.Definition { return window.Sliding(stream.Count, csl, css) },
		}
	} else {
		ttl, tsl, tss, gap := int64(20+rng.Intn(300)), int64(50+rng.Intn(300)), int64(10+rng.Intn(120)), int64(100+rng.Intn(200))
		defs = []func() window.Definition{
			func() window.Definition { return window.Tumbling(stream.Time, ttl) },
			func() window.Definition { return window.Sliding(stream.Time, tsl, tss) },
			func() window.Definition { return window.Session[float64](gap) },
		}
		if ordered {
			ctl := int64(20 + rng.Intn(200))
			defs = append(defs, func() window.Definition { return window.Tumbling(stream.Count, ctl) })
		}
	}
	rng.Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
	defs = defs[:1+rng.Intn(len(defs))]

	ev := genEvents(rng, 800+rng.Intn(1200))
	wmPeriod := int64(0)
	if !ordered {
		wmPeriod = int64(50 + rng.Intn(300))
	}
	items := stream.Prepare(stream.Watermarker{Period: wmPeriod, Lag: d.MaxDelay + 1}, stream.Apply(d, ev))
	opts := Options{Ordered: ordered, Store: storeOf(eager), Lateness: 1 << 40}
	label := func(bs int) string {
		return fmt.Sprintf("seed=%d bs=%d (ordered=%v eager=%v commutative=%v countRegime=%v)",
			seed, bs, ordered, eager, commutative, countRegime)
	}

	if commutative {
		f := aggregate.Sum[float64](ident)
		mk := func() *Aggregator[float64, float64, float64] {
			ag := New[float64](f, opts)
			for _, def := range defs {
				ag.MustAddQuery(def())
			}
			return ag
		}
		base := collectSequential(mk(), items)
		for _, bs := range append(append([]int{}, batchSizes...), len(items)) {
			compareResultRuns(t, label(bs), base, collectBatched(mk(), items, bs))
		}
	} else {
		f := aggregate.Last[float64](ident)
		mk := func() *Aggregator[float64, aggregate.Sample, float64] {
			ag := New[float64](f, opts)
			for _, def := range defs {
				ag.MustAddQuery(def())
			}
			return ag
		}
		base := collectSequential(mk(), items)
		for _, bs := range append(append([]int{}, batchSizes...), len(items)) {
			compareResultRuns(t, label(bs), base, collectBatched(mk(), items, bs))
		}
	}
}

// TestBatchEquivalenceContextAware pins the fallback: context-aware queries
// (punctuation windows) disable the run fast path, and batches must still
// produce the exact per-element result sequence.
func TestBatchEquivalenceContextAware(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ev := genEvents(rng, 1500)
	items := stream.Prepare(stream.Watermarker{Period: 100, Lag: 1}, stream.Apply(stream.Disorder{}, ev))
	mk := func() *Aggregator[float64, float64, float64] {
		ag := New[float64](aggregate.Sum[float64](ident), Options{Lateness: 1 << 40})
		ag.MustAddQuery(window.Punctuation[float64](func(v float64) bool { return v == 7 }))
		ag.MustAddQuery(window.Tumbling(stream.Time, 64))
		return ag
	}
	base := collectSequential(mk(), items)
	for _, bs := range append(append([]int{}, batchSizes...), len(items)) {
		compareResultRuns(t, fmt.Sprintf("ctx bs=%d", bs), base, collectBatched(mk(), items, bs))
	}
}

// TestBatchEquivalenceCountInTimeOrdered pins the ordered count-trigger tail:
// CountInTime completes count windows mid-run, so runLength must stop at the
// completing rank.
func TestBatchEquivalenceCountInTimeOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ev := genEvents(rng, 2000)
	items := stream.Prepare(stream.Watermarker{}, stream.Apply(stream.Disorder{}, ev))
	mk := func() *Aggregator[float64, float64, float64] {
		ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
		ag.MustAddQuery(window.CountInTime[float64](25, 400))
		ag.MustAddQuery(window.Tumbling(stream.Count, 64))
		ag.MustAddQuery(window.Sliding(stream.Time, 200, 50))
		return ag
	}
	base := collectSequential(mk(), items)
	for _, bs := range append(append([]int{}, batchSizes...), len(items)) {
		compareResultRuns(t, fmt.Sprintf("cit bs=%d", bs), base, collectBatched(mk(), items, bs))
	}
}

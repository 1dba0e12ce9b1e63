package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// orderedItems builds an in-order stream (no disorder, tuple-driven
// watermarks suffice in Ordered mode, but explicit ones exercise the
// watermark trigger path too).
func orderedItems(rng *rand.Rand, n int) []stream.Item[float64] {
	ev := genEvents(rng, n)
	return prepare(ev, stream.Disorder{}, 100)
}

// runPair feeds the same items through a StoreDABA and a StoreLazy operator
// built by mk and requires the emission sequences to be identical. Values
// are integral sums, so float association differences cannot mask a bug —
// equality is exact.
func runPair(t *testing.T, items []stream.Item[float64], mk func(Options) *Aggregator[float64, float64, float64]) *Aggregator[float64, float64, float64] {
	t.Helper()
	dab := mk(Options{Ordered: true, Store: StoreDABA})
	lazy := mk(Options{Ordered: true})
	if d := reference.Diff(emitted(lazy, items), emitted(dab, items), nil); d != "" {
		t.Fatalf("daba vs lazy: %s", d)
	}
	return dab
}

func TestDABAMatchesLazyStore(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		items := orderedItems(rng, streamLen(4000))
		dab := runPair(t, items, func(o Options) *Aggregator[float64, float64, float64] {
			ag := New[float64](aggregate.Sum[float64](ident), o)
			ag.MustAddQuery(window.Tumbling(stream.Time, 10))
			ag.MustAddQuery(window.Tumbling(stream.Time, 37))
			ag.MustAddQuery(window.Sliding(stream.Time, 100, 25))
			return ag
		})
		if dab.dabaHits == 0 {
			t.Fatalf("seed %d: DABA rings never served an emission (hits=0, misses=%d)", seed, dab.dabaMisses)
		}
		// The rings must serve the overwhelming majority of emissions in
		// the steady state — widespread fallback means the frontier logic
		// is broken even if results stay correct via the lazy path.
		if dab.dabaMisses > dab.dabaHits/10+5 {
			t.Fatalf("seed %d: DABA fallback dominates: hits=%d misses=%d", seed, dab.dabaHits, dab.dabaMisses)
		}
	}
}

// TestDABAMixedMeasures: count-measure queries have no ring and must be
// served by the fold exactly as in the lazy store.
func TestDABAMixedMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := orderedItems(rng, streamLen(3000))
	runPair(t, items, func(o Options) *Aggregator[float64, float64, float64] {
		ag := New[float64](aggregate.Sum[float64](ident), o)
		ag.MustAddQuery(window.Tumbling(stream.Time, 50))
		ag.MustAddQuery(window.Tumbling(stream.Count, 64))
		ag.MustAddQuery(window.Sliding(stream.Count, 100, 30))
		return ag
	})
}

// TestDABAQueryChurn drives the rebuild path: removing a query mid-stream
// merges away slice boundaries the surviving query's ring frontier may point
// at, and adding one mid-stream starts a ring against already-cut slices.
func TestDABAQueryChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := orderedItems(rng, streamLen(4000))
	cut := len(items) / 2

	type agg = Aggregator[float64, float64, float64]
	mk := func(o Options) *agg {
		ag := New[float64](aggregate.Sum[float64](ident), o)
		ag.MustAddQuery(window.Tumbling(stream.Time, 7)) // fine-grained: forces many slices
		ag.MustAddQuery(window.Sliding(stream.Time, 200, 50))
		return ag
	}
	drive := func(ag *agg) []reference.Row {
		var rows []reference.Row
		for i := range items {
			if i == cut {
				ag.RemoveQuery(0) // merges unneeded edges under the sliding ring
				ag.MustAddQuery(window.Tumbling(stream.Time, 90))
			}
			rows = append(rows, emitted(ag, items[i:i+1])...)
		}
		return rows
	}
	if d := reference.Diff(drive(mk(Options{Ordered: true})), drive(mk(Options{Ordered: true, Store: StoreDABA})), nil); d != "" {
		t.Fatalf("daba vs lazy: %s", d)
	}
}

// TestDABABatchMatchesTuple: the batch fast path must agree with per-element
// processing under the DABA store (runs defer triggers to run boundaries,
// which must not desync the ring frontier).
func TestDABABatchMatchesTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	items := orderedItems(rng, streamLen(4000))
	mk := func() *Aggregator[float64, float64, float64] {
		ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true, Store: StoreDABA})
		ag.MustAddQuery(window.Tumbling(stream.Time, 10))
		ag.MustAddQuery(window.Sliding(stream.Time, 100, 25))
		return ag
	}
	want := collectSequential(mk(), items)
	for _, bs := range []int{1, 7, 256, len(items)} {
		compareResultRuns(t, fmt.Sprintf("bs=%d", bs), want, collectBatched(mk(), items, bs))
	}
}

func TestDABASnapshotSuffixEquivalence(t *testing.T) {
	ordered := snapItems(3000, false, 13)
	checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, float64, float64] {
		ag := New(aggregate.Sum(stream.Val), Options{Ordered: true, Store: StoreDABA})
		ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
		ag.MustAddQuery(window.Sliding(stream.Time, 3000, 1000))
		return ag
	}, ordered)
}

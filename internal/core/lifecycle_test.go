package core

import (
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// TestGoldenWithTightEviction re-runs the oracle comparison with a realistic
// allowed lateness instead of an unbounded one: eviction actively discards
// slices throughout the run, and correctness of every emitted window proves
// the interest-horizon computation never drops a slice that is still needed.
func TestGoldenWithTightEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ev := genEvents(rng, streamLen(4000))
	d := stream.Disorder{Fraction: 0.25, MaxDelay: 400, Seed: 73}
	f := aggregate.Sum[float64](ident)

	ag := New[float64](f, Options{Lateness: 2 * d.MaxDelay})
	qTumb := ag.MustAddQuery(window.Tumbling(stream.Time, 50))
	qSlide := ag.MustAddQuery(window.Sliding(stream.Time, 100, 30))
	qSess := ag.MustAddQuery(window.Session[float64](150))

	items := prepare(ev, d, 100)
	finals := run(ag, items)

	if dropped := ag.Stats().Dropped; dropped != 0 {
		t.Fatalf("watermark lag exceeds delays, nothing may be dropped; got %d", dropped)
	}
	// Eviction must actually have happened: the live slice count must be
	// far below the total number of edges the run produced.
	if s := ag.Stats().Slices; s > 400 {
		t.Fatalf("eviction ineffective: %d live slices", s)
	}

	checkAgainst(t, finals, qTumb,
		reference.Finals(f, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 50, Slide: 50}, ev, stream.MaxTime))
	checkAgainst(t, finals, qSlide,
		reference.Finals(f, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 100, Slide: 30}, ev, stream.MaxTime))
	checkAgainst(t, finals, qSess,
		reference.Finals(f, reference.Query[float64]{Kind: reference.Session, Gap: 150}, ev, stream.MaxTime))
}

// TestGoldenCountWithTightEviction is the count-measure variant.
func TestGoldenCountWithTightEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ev := genEvents(rng, streamLen(3000))
	d := stream.Disorder{Fraction: 0.2, MaxDelay: 300, Seed: 79}
	f := aggregate.Sum[float64](ident)

	ag := New[float64](f, Options{Lateness: 2 * d.MaxDelay})
	q := ag.MustAddQuery(window.Sliding(stream.Count, 60, 25))
	finals := run(ag, prepare(ev, d, 100))

	if s := ag.Stats().Slices; s > 200 {
		t.Fatalf("eviction ineffective: %d live slices", s)
	}
	checkAgainst(t, finals, q,
		reference.Finals(f, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Count, Length: 60, Slide: 25}, ev, stream.MaxTime))
}

// TestAddQueryMidStream verifies that a query registered mid-stream emits
// only windows completing after its registration, with oracle-correct
// values for every fully-covered window.
func TestAddQueryMidStream(t *testing.T) {
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Ordered: true})
	ag.MustAddQuery(window.Tumbling(stream.Time, 40))

	var ev []stream.Event[float64]
	for ts := int64(0); ts < 4000; ts += 10 {
		ev = append(ev, stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	finals := finalMap{}
	collect := func(rs []Result[float64]) {
		for _, r := range rs {
			finals[key{r.Query, r.Start, r.End}] = r
		}
	}
	var late int
	for i, e := range ev {
		collect(ag.ProcessElement(e))
		if i == len(ev)/2 {
			late = ag.MustAddQuery(window.Tumbling(stream.Time, 100))
		}
	}
	collect(ag.ProcessWatermark(stream.MaxTime))

	var lateWindows []key
	for k := range finals {
		if k.query == late {
			lateWindows = append(lateWindows, k)
		}
	}
	if len(lateWindows) == 0 {
		t.Fatal("mid-stream query emitted nothing")
	}
	registeredAt := ev[len(ev)/2].Time
	for _, k := range lateWindows {
		if k.end-1 <= registeredAt-1 {
			t.Fatalf("window [%d,%d) completed before registration at %d", k.start, k.end, registeredAt)
		}
		// Fully post-registration windows carry exact values (10 ms
		// spacing → 10 tuples per 100 ms window).
		if k.start >= registeredAt && finals[k].Value != 10 {
			t.Fatalf("window [%d,%d): value %v want 10", k.start, k.end, finals[k].Value)
		}
	}
}

// TestNoQueriesIsHarmless feeds a query-less aggregator.
func TestNoQueriesIsHarmless(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{})
	for ts := int64(0); ts < 100; ts++ {
		if rs := ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1}); len(rs) != 0 {
			t.Fatal("results without queries")
		}
	}
	if rs := ag.ProcessWatermark(50); len(rs) != 0 {
		t.Fatal("results without queries")
	}
}

// TestWatermarkRegressionIgnored: non-monotone watermarks are no-ops.
func TestWatermarkRegressionIgnored(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{})
	ag.MustAddQuery(window.Tumbling(stream.Time, 10))
	ag.ProcessElement(stream.Event[float64]{Time: 100, Seq: 0, Value: 1})
	first := len(ag.ProcessWatermark(90))
	if n := len(ag.ProcessWatermark(50)); n != 0 {
		t.Fatalf("regressed watermark emitted %d results", n)
	}
	_ = first
}

// TestResultsBufferReuseContract: the returned slice is invalidated by the
// next call — verify the documented aliasing actually reuses the buffer
// (guarding against accidental per-call allocations).
func TestResultsBufferReuseContract(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	ag.MustAddQuery(window.Tumbling(stream.Time, 10))
	var prev []Result[float64]
	reused := false
	for ts := int64(0); ts < 500; ts++ {
		rs := ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
		if len(rs) > 0 {
			if prev != nil && &prev[0] == &rs[0] {
				reused = true
			}
			prev = rs[:1:1]
		}
	}
	if !reused {
		t.Fatal("results buffer is not reused across calls")
	}
}

// TestRegistrationBeforeInputIsIncremental: on an operator that has seen no
// input, AddQuery adds the new query's share to the derived configuration
// instead of re-deriving it from every query. What it leaves behind must be
// what reconfigure derives from scratch — flags, the Fig 4 decision, the
// context list, the cached next edges and trigger wakes — for any mix of
// window types, stores and stream orders, with removals in between.
func TestRegistrationBeforeInputIsIncremental(t *testing.T) {
	type derived struct {
		hasCFTime, hasCFCount, hasCA, needRank, keepTuples bool
		ctx, rings                                         int
		timeEdge, countEdge, wakeTime, wakeCount           int64
	}
	snap := func(ag *Aggregator[float64, float64, float64]) derived {
		return derived{ag.hasCFTime, ag.hasCFCount, ag.hasCA, ag.needRank, ag.st.keepTuples,
			len(ag.ctxQueries), len(ag.dabaRings),
			ag.cachedCFTimeEdge, ag.cachedCFCountEdge, ag.cfTriggerWakeTime, ag.cfTriggerWakeCount}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		ordered := rng.Intn(2) == 0
		opts := Options{Ordered: ordered, Store: []StoreKind{StoreLazy, StoreEager, StoreDABA}[rng.Intn(3)]}
		if !ordered && opts.Store == StoreDABA {
			opts.Store = StoreLazy
		}
		ag := New[float64](aggregate.Sum[float64](ident), opts)
		var ids []int
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			var def window.Definition
			switch k := rng.Intn(8); {
			case k == 0 && ordered:
				def = window.Sliding(stream.Count, 10+rng.Int63n(50), 5+rng.Int63n(5))
			case k == 1:
				def = window.Session[float64](1 + rng.Int63n(500))
			case k == 2 && ordered:
				def = window.CountInTime[float64](10, 100)
			default:
				slide := 1 + rng.Int63n(900)
				def = window.Sliding(stream.Time, slide*(1+rng.Int63n(6)), slide)
			}
			id, err := ag.AddQuery(def)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			ids = append(ids, id)
			if rng.Intn(6) == 0 {
				j := rng.Intn(len(ids))
				ag.RemoveQuery(ids[j])
				ids = append(ids[:j], ids[j+1:]...)
			}
			got := snap(ag)
			ag.reconfigure()
			if want := snap(ag); got != want {
				t.Fatalf("round %d (%+v), after query %d: incremental %+v, from scratch %+v", round, opts, i, got, want)
			}
		}
	}
}

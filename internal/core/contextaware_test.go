package core

import (
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// These tests drive the context-aware and count-measure machinery against the
// oracle: count windows exercise the shift cascade (Fig 6), punctuation
// windows the FCF split path, CountInTime the FCA watermark splits.

// -------------------------------------------------------- count windows ---

func testCountWindows(t *testing.T, f aggregate.Function[float64, float64, float64], d stream.Disorder, eager bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	ev := genEvents(rng, 2500)
	ag := New[float64](f, Options{Store: storeOf(eager), Lateness: 1 << 40})
	qTumb := ag.MustAddQuery(window.Tumbling(stream.Count, 100))
	qSlide := ag.MustAddQuery(window.Sliding(stream.Count, 60, 25))
	items := prepare(ev, d, 100)
	rows := emitted(ag, items)

	checkQuery(t, rows, f, qTumb, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Count, Length: 100, Slide: 100}, ev)
	checkQuery(t, rows, f, qSlide, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Count, Length: 60, Slide: 25}, ev)
}

func TestCountWindowsInOrderEquivalent(t *testing.T) {
	testCountWindows(t, aggregate.Sum[float64](ident), stream.Disorder{}, false)
}

func TestCountWindowsOutOfOrderInvertible(t *testing.T) {
	testCountWindows(t, aggregate.Sum[float64](ident), stream.Disorder{Fraction: 0.25, MaxDelay: 400, Seed: 17}, false)
}

func TestCountWindowsOutOfOrderNonInvertible(t *testing.T) {
	// NaiveSum forces the recompute path of the shift cascade.
	testCountWindows(t, aggregate.NaiveSum[float64](ident), stream.Disorder{Fraction: 0.25, MaxDelay: 400, Seed: 17}, false)
}

func TestCountWindowsOutOfOrderMinUnaffected(t *testing.T) {
	// Min is not invertible, but most removals provably do not change the
	// aggregate (§6.3.2); correctness must hold either way.
	testCountWindows(t, aggregate.Min[float64](ident), stream.Disorder{Fraction: 0.25, MaxDelay: 400, Seed: 19}, false)
}

func TestCountWindowsEager(t *testing.T) {
	testCountWindows(t, aggregate.Sum[float64](ident), stream.Disorder{Fraction: 0.25, MaxDelay: 400, Seed: 23}, true)
}

func TestCountShiftCascadeStats(t *testing.T) {
	// Out-of-order tuples on count windows must actually shift tuples
	// across slices (Fig 6), and invertible functions must avoid
	// recomputation entirely.
	d := stream.Disorder{Fraction: 0.3, MaxDelay: 500, Seed: 3}
	rng := rand.New(rand.NewSource(37))
	ev := genEvents(rng, 1500)
	ag := New[float64](aggregate.Sum[float64](ident), Options{Lateness: 1 << 40})
	ag.MustAddQuery(window.Tumbling(stream.Count, 50))
	emitted(ag, prepare(ev, d, 100))
	st := ag.Stats()
	if st.Shifts == 0 {
		t.Error("expected shift operations for out-of-order count windows")
	}
	if st.Recomputes != 0 {
		t.Errorf("invertible sum must not recompute; got %d recomputations", st.Recomputes)
	}
}

// -------------------------------------------------- punctuation windows ---

func testPunctuation(t *testing.T, d stream.Disorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ev := genEvents(rng, 2000)
	// Mark roughly every 30th tuple as a punctuation via its value.
	pred := func(v float64) bool { return v == 7 }

	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Ordered: d.None(), Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Punctuation[float64](pred))
	wmPeriod := int64(0)
	if !d.None() {
		wmPeriod = 100
	}
	rows := emitted(ag, prepare(ev, d, wmPeriod))

	checkQuery(t, rows, f, qid, reference.Query[float64]{Kind: reference.Punctuation, Pred: pred}, ev)
}

func TestPunctuationInOrder(t *testing.T) { testPunctuation(t, stream.Disorder{}) }

func TestPunctuationOutOfOrder(t *testing.T) {
	testPunctuation(t, stream.Disorder{Fraction: 0.2, MaxDelay: 300, Seed: 29})
}

func TestPunctuationInOrderNeedsNoTuples(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	ag.MustAddQuery(window.Punctuation[float64](func(v float64) bool { return v < 0 }))
	if ag.StoresTuples() {
		t.Fatal("FCF windows on in-order streams must not store tuples (Fig 4)")
	}
}

// ------------------------------------------------------------ FCA (CIT) ---

func testCountInTime(t *testing.T, d stream.Disorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	ev := genEvents(rng, 2000)
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Ordered: d.None(), Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.CountInTime[float64](25, 500))
	if !ag.StoresTuples() {
		t.Fatal("FCA windows must store tuples even in order (Fig 4)")
	}
	items := prepare(ev, d, 250)
	rows := emitted(ag, items)

	checkQuery(t, rows, f, qid, reference.Query[float64]{Kind: reference.CountInTime, N: 25, Every: 500}, ev)
	if st := ag.Stats(); st.Splits == 0 {
		t.Error("FCA windows should split slices when materializing edges")
	}
}

func TestCountInTimeInOrder(t *testing.T) { testCountInTime(t, stream.Disorder{}) }

func TestCountInTimeOutOfOrder(t *testing.T) {
	testCountInTime(t, stream.Disorder{Fraction: 0.15, MaxDelay: 200, Seed: 47})
}

// ------------------------------------------------------ mixed workloads ---

func TestMixedQueriesShareSlicesInOrder(t *testing.T) {
	// Time-extent and count-extent queries may share one aggregator on an
	// in-order stream; each must match the oracle.
	rng := rand.New(rand.NewSource(53))
	ev := genEvents(rng, 2000)
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Ordered: true})
	qTime := ag.MustAddQuery(window.Sliding(stream.Time, 100, 40))
	qCount := ag.MustAddQuery(window.Tumbling(stream.Count, 75))
	qSess := ag.MustAddQuery(window.Session[float64](150))
	rows := emitted(ag, prepare(ev, stream.Disorder{}, 0))

	checkQuery(t, rows, f, qTime, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 100, Slide: 40}, ev)
	checkQuery(t, rows, f, qCount, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Count, Length: 75, Slide: 75}, ev)
	checkQuery(t, rows, f, qSess, reference.Query[float64]{Kind: reference.Session, Gap: 150}, ev)
}

func TestMixedMeasuresRejectedWhenUnordered(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{})
	ag.MustAddQuery(window.Tumbling(stream.Time, 100))
	if _, err := ag.AddQuery(window.Tumbling(stream.Count, 10)); err == nil {
		t.Fatal("expected an error when mixing extent measures on an unordered stream")
	}
}

func TestAddRemoveQueryAdaptsStorage(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{})
	ag.MustAddQuery(window.Tumbling(stream.Time, 100))
	if ag.StoresTuples() {
		t.Fatal("CF commutative unordered: no tuples")
	}
	qid := ag.MustAddQuery(window.Punctuation[float64](func(v float64) bool { return v < 0 }))
	if !ag.StoresTuples() {
		t.Fatal("adding an FCF query on an unordered stream must switch tuple storage on")
	}
	ag.RemoveQuery(qid)
	if ag.StoresTuples() {
		t.Fatal("removing the FCF query must switch tuple storage back off")
	}
}

func TestRemoveQueryMergesUnneededEdges(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	keep := ag.MustAddQuery(window.Tumbling(stream.Time, 100))
	drop := ag.MustAddQuery(window.Tumbling(stream.Time, 7))
	_ = keep
	for ts := int64(0); ts < 1000; ts++ {
		ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	before := ag.Stats().Slices
	ag.RemoveQuery(drop)
	after := ag.Stats().Slices
	if after >= before {
		t.Errorf("expected edge merge after query removal: %d -> %d slices", before, after)
	}
}

// TestRemovedQueryStopsEmittingAndSplitting is the RemoveQuery regression
// contract: after removal the query's id never appears in results again, the
// surviving query keeps emitting, and the removed query's edges stop forcing
// slice splits — every live slice boundary past the removal point aligns to
// the surviving query's windows.
func TestRemovedQueryStopsEmittingAndSplitting(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	keep := ag.MustAddQuery(window.Tumbling(stream.Time, 100))
	drop := ag.MustAddQuery(window.Tumbling(stream.Time, 7))
	feed := func(lo, hi int64) (forDrop, forKeep int) {
		for ts := lo; ts < hi; ts++ {
			for _, r := range ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1}) {
				switch r.Query {
				case drop:
					forDrop++
				case keep:
					forKeep++
				}
			}
		}
		return
	}
	if d, _ := feed(0, 500); d == 0 {
		t.Fatal("dropped query emitted nothing before removal")
	}
	ag.RemoveQuery(drop)
	d, k := feed(500, 1500)
	if d != 0 {
		t.Errorf("removed query emitted %d results after removal", d)
	}
	if k == 0 {
		t.Error("surviving query stopped emitting after an unrelated removal")
	}
	for _, s := range ag.SliceSnapshot() {
		if s.Start > 500 && s.Start%100 != 0 {
			t.Errorf("slice edge %d survives past removal: only 100ms-aligned edges should be cut", s.Start)
		}
	}
}

// ------------------------------------------------------- late updates ----

func TestLateTupleEmitsUpdates(t *testing.T) {
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Tumbling(stream.Time, 10))

	ag.ProcessElement(stream.Event[float64]{Time: 5, Seq: 0, Value: 1})
	ag.ProcessElement(stream.Event[float64]{Time: 15, Seq: 1, Value: 2})
	rs := ag.ProcessWatermark(20)
	if len(rs) != 2 {
		t.Fatalf("expected 2 windows at watermark, got %d: %+v", len(rs), rs)
	}
	// A tuple for the already-emitted first window arrives late.
	rs = ag.ProcessElement(stream.Event[float64]{Time: 7, Seq: 2, Value: 10})
	var upd *Result[float64]
	for i := range rs {
		if rs[i].Query == qid && rs[i].Start == 0 && rs[i].End == 10 {
			upd = &rs[i]
		}
	}
	if upd == nil {
		t.Fatalf("expected an update for window [0,10), got %+v", rs)
	}
	if !upd.Update || upd.Value != 11 {
		t.Errorf("update result wrong: %+v", *upd)
	}
}

func TestTooLateTupleIsDropped(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Lateness: 5})
	ag.MustAddQuery(window.Tumbling(stream.Time, 10))
	ag.ProcessElement(stream.Event[float64]{Time: 50, Seq: 0, Value: 1})
	ag.ProcessWatermark(40)
	rs := ag.ProcessElement(stream.Event[float64]{Time: 10, Seq: 1, Value: 99})
	if len(rs) != 0 {
		t.Errorf("expected no results for dropped tuple, got %+v", rs)
	}
	if ag.Stats().Dropped != 1 {
		t.Errorf("expected 1 dropped tuple, got %d", ag.Stats().Dropped)
	}
}

// ------------------------------------------------------ session merging ---

func TestSessionMergeOnBridgingTuple(t *testing.T) {
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Session[float64](10))

	ag.ProcessElement(stream.Event[float64]{Time: 0, Seq: 0, Value: 1})
	ag.ProcessElement(stream.Event[float64]{Time: 2, Seq: 1, Value: 2})
	ag.ProcessElement(stream.Event[float64]{Time: 20, Seq: 2, Value: 4})
	rs := ag.ProcessWatermark(40)
	if len(rs) != 2 {
		t.Fatalf("expected two sessions, got %+v", rs)
	}
	// Bridge both sessions with a late tuple at t=11 (within gap of both).
	rs = ag.ProcessElement(stream.Event[float64]{Time: 11, Seq: 3, Value: 8})
	found := false
	for _, r := range rs {
		if r.Query == qid && r.Start == 0 && r.End == 30 && r.Update {
			if r.Value != 15 {
				t.Errorf("merged session value: got %v want 15", r.Value)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("expected merged session update [0,30), got %+v", rs)
	}
	if ag.Stats().Merges == 0 {
		t.Error("bridging tuple should merge slices")
	}
	if ag.Stats().Recomputes != 0 {
		t.Error("session windows must never recompute aggregates")
	}
}

func TestSessionsNeverRecompute(t *testing.T) {
	// Heavy disorder on a pure session workload: zero recomputations and
	// zero stored tuples, per the paper's session exception.
	rng := rand.New(rand.NewSource(59))
	ev := genEvents(rng, 2500)
	f := aggregate.Sum[float64](ident)
	ag := New[float64](f, Options{Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Session[float64](150))
	if ag.StoresTuples() {
		t.Fatal("sessions must not force tuple storage")
	}
	d := stream.Disorder{Fraction: 0.4, MaxDelay: 600, Seed: 61}
	rows := emitted(ag, prepare(ev, d, 100))
	if ag.Stats().Recomputes != 0 {
		t.Errorf("sessions recomputed %d times; the paper guarantees zero", ag.Stats().Recomputes)
	}
	checkQuery(t, rows, f, qid, reference.Query[float64]{Kind: reference.Session, Gap: 150}, ev)
}

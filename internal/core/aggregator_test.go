package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/rle"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// ----------------------------------------------------------- test driver ---

type key struct {
	query      int
	start, end int64
}

type finalMap map[key]Result[float64]

// emitted feeds a prepared stream through the aggregator, one call per item,
// and returns every row it emitted, in order.
func emitted(ag *Aggregator[float64, float64, float64], items []stream.Item[float64]) []reference.Row {
	var rows []reference.Row
	add := func(rs []Result[float64]) {
		for _, r := range rs {
			rows = append(rows, reference.Row{Query: r.Query, Start: r.Start, End: r.End, N: r.N, Value: r.Value, Update: r.Update})
		}
	}
	for _, it := range items {
		if it.Kind == stream.KindEvent {
			add(ag.ProcessElement(it.Event))
		} else {
			add(ag.ProcessWatermark(it.Watermark))
		}
	}
	return rows
}

// checkQuery holds query qid's rows against the oracle's windows of q over
// ev (reference.Check).
func checkQuery(t *testing.T, rows []reference.Row, f aggregate.Function[float64, float64, float64], qid int, q reference.Query[float64], ev []stream.Event[float64]) {
	t.Helper()
	var mine []reference.Row
	for _, r := range rows {
		if r.Query == qid {
			mine = append(mine, r)
		}
	}
	want := reference.Want{Rows: reference.Windows(f, q, qid, nil, ev, stream.MaxTime), Final: stream.MaxTime, Recut: map[int]bool{qid: q.Recut()}}
	if v := reference.Check(mine, want); v.Failed() > 0 {
		t.Errorf("query %d: %v", qid, v)
	}
}

func approx(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-6 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// streamLen scales a randomized-stream length down under -short so the
// -race leg finishes in seconds; default runs keep the full-size streams.
func streamLen(full int) int {
	if testing.Short() {
		return full / 3
	}
	return full
}

// genEvents builds a random in-order event stream with occasional gaps (so
// sessions appear) and occasional equal timestamps.
func genEvents(rng *rand.Rand, n int) []stream.Event[float64] {
	ev := make([]stream.Event[float64], 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.1:
			// tie: same timestamp as the previous event
		case r < 0.85:
			ts += int64(1 + rng.Intn(40))
		default:
			ts += int64(200 + rng.Intn(400)) // session gap
		}
		ev = append(ev, stream.Event[float64]{Time: ts, Seq: int64(i), Value: float64(rng.Intn(100))})
	}
	return ev
}

func prepare(ev []stream.Event[float64], d stream.Disorder, wmPeriod int64) []stream.Item[float64] {
	arr := stream.Apply(d, ev)
	return stream.Prepare(stream.Watermarker{Period: wmPeriod, Lag: d.MaxDelay + 1}, arr)
}

// -------------------------------------------------------------- basics ----

func TestTumblingSumInOrder(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	qid := ag.MustAddQuery(window.Tumbling(stream.Time, 10))

	finals := finalMap{}
	for i, e := range []stream.Event[float64]{
		{Time: 1, Value: 1}, {Time: 5, Value: 2}, {Time: 9, Value: 3},
		{Time: 12, Value: 4}, {Time: 25, Value: 5},
	} {
		_ = i
		for _, r := range ag.ProcessElement(e) {
			finals[key{r.Query, r.Start, r.End}] = r
		}
	}
	for _, r := range ag.ProcessWatermark(stream.MaxTime) {
		finals[key{r.Query, r.Start, r.End}] = r
	}
	want := map[key]float64{
		{qid, 0, 10}:  6,
		{qid, 10, 20}: 4,
		{qid, 20, 30}: 5,
	}
	for k, v := range want {
		got, ok := finals[k]
		if !ok || !approx(got.Value, v) {
			t.Errorf("window [%d,%d): got %+v want %v", k.start, k.end, got, v)
		}
	}
}

func ident(v float64) float64 { return v }

func TestSlidingOverlapsShareSlices(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	qid := ag.MustAddQuery(window.Sliding(stream.Time, 10, 2))

	ev := make([]stream.Event[float64], 0)
	for ts := int64(0); ts < 40; ts++ {
		ev = append(ev, stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	finals := finalMap{}
	for _, e := range ev {
		for _, r := range ag.ProcessElement(e) {
			finals[key{r.Query, r.Start, r.End}] = r
		}
	}
	for _, r := range ag.ProcessWatermark(stream.MaxTime) {
		finals[key{r.Query, r.Start, r.End}] = r
	}
	// Full windows hold exactly 10 tuples (one per ms).
	for s := int64(0); s+10 <= 40; s += 2 {
		r, ok := finals[key{qid, s, s + 10}]
		if !ok {
			t.Fatalf("missing window [%d,%d)", s, s+10)
		}
		if r.Value != 10 {
			t.Errorf("window [%d,%d): got %v want 10", s, s+10, r.Value)
		}
	}
	// Slicing must keep far fewer slices than tuples would imply: edges
	// every 2 ms within the retained horizon.
	if st := ag.Stats(); st.Slices > 64 {
		t.Errorf("expected bounded slice count, got %d", st.Slices)
	}
}

func TestInOrderDropsTuplesForCFWorkloads(t *testing.T) {
	ag := New[float64](aggregate.Sum[float64](ident), Options{Ordered: true})
	ag.MustAddQuery(window.Sliding(stream.Time, 10, 2))
	if ag.StoresTuples() {
		t.Fatal("in-order CF workload must not store tuples (Fig 4)")
	}
	for ts := int64(0); ts < 100; ts++ {
		ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	for _, s := range ag.st.slices {
		if len(s.Events) != 0 {
			t.Fatal("slice stored events although decision said drop")
		}
	}
}

func TestDecisionMatrix(t *testing.T) {
	sum := aggregate.Sum[float64](ident).Props()
	collect := aggregate.Collect[float64](ident).Props()
	tumbling := []window.Definition{window.Tumbling(stream.Time, 10)}
	session := []window.Definition{window.Session[float64](5)}
	punct := []window.Definition{window.Punctuation[float64](func(v float64) bool { return v < 0 })}
	fca := []window.Definition{window.CountInTime[float64](10, 100)}
	countTumb := []window.Definition{window.Tumbling(stream.Count, 10)}
	slidingSession := []window.Definition{window.Sliding(stream.Time, 4000, 1000), window.Session[float64](700)}
	twoSessions := []window.Definition{window.Session[float64](700), window.Session[float64](300)}

	cases := []struct {
		name    string
		ordered bool
		props   aggregate.Props
		defs    []window.Definition
		want    bool
	}{
		{"ordered CF", true, sum, tumbling, false},
		{"ordered session", true, sum, session, false},
		{"ordered punctuation", true, sum, punct, false},
		{"ordered FCA", true, sum, fca, true},
		{"ordered count CF", true, sum, countTumb, false},
		{"ordered non-commutative", true, collect, tumbling, false},
		{"unordered CF commutative", false, sum, tumbling, false},
		{"unordered non-commutative", false, collect, tumbling, true},
		{"unordered session", false, sum, session, false},
		{"unordered punctuation", false, sum, punct, true},
		{"unordered count measure", false, sum, countTumb, true},
		// A session beside other queries stays exempt (rule 2): its edges
		// move with its tuples, so no split lands in a populated slice.
		{"ordered sliding + session", true, sum, slidingSession, false},
		{"unordered sliding + session", false, sum, slidingSession, false},
		{"unordered two sessions", false, sum, twoSessions, false},
	}
	for _, c := range cases {
		if got := needTuples(c.ordered, c.props, c.defs); got != c.want {
			t.Errorf("%s: needTuples=%v want %v", c.name, got, c.want)
		}
	}
}

// --------------------------------------------------------- golden tests ---

// storeOf selects the eager (FlatFAT) store for eager, else the lazy one.
func storeOf(eager bool) StoreKind {
	if eager {
		return StoreEager
	}
	return StoreLazy
}

func goldenAgainst(t *testing.T, ordered, eager bool, d stream.Disorder) {
	rng := rand.New(rand.NewSource(7))
	ev := genEvents(rng, streamLen(3000))

	sum := aggregate.Sum[float64](ident)

	type q struct {
		def window.Definition
		ref reference.Query[float64]
	}
	qs := []q{
		{window.Tumbling(stream.Time, 50), reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 50, Slide: 50}},
		{window.Sliding(stream.Time, 100, 30), reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 100, Slide: 30}},
		{window.Session[float64](150), reference.Query[float64]{Kind: reference.Session, Gap: 150}},
	}

	ag := New[float64](sum, Options{Ordered: ordered, Store: storeOf(eager), Lateness: 1 << 40})
	ids := make([]int, len(qs))
	for i, qq := range qs {
		ids[i] = ag.MustAddQuery(qq.def)
	}

	wmPeriod := int64(0)
	if !ordered {
		wmPeriod = 100
	}
	items := prepare(ev, d, wmPeriod)
	rows := emitted(ag, items)

	for i, qq := range qs {
		checkQuery(t, rows, sum, ids[i], qq.ref, ev)
		if t.Failed() {
			t.Fatalf("query %d (%v) diverged from oracle", i, qq.def)
		}
	}
}

func TestGoldenInOrderLazy(t *testing.T)  { goldenAgainst(t, true, false, stream.Disorder{}) }
func TestGoldenInOrderEager(t *testing.T) { goldenAgainst(t, true, true, stream.Disorder{}) }

func TestGoldenOutOfOrderLazy(t *testing.T) {
	goldenAgainst(t, false, false, stream.Disorder{Fraction: 0.2, MaxDelay: 500, Seed: 11})
}
func TestGoldenOutOfOrderEager(t *testing.T) {
	goldenAgainst(t, false, true, stream.Disorder{Fraction: 0.2, MaxDelay: 500, Seed: 11})
}
func TestGoldenHeavyDisorder(t *testing.T) {
	goldenAgainst(t, false, false, stream.Disorder{Fraction: 0.8, MinDelay: 100, MaxDelay: 2000, Seed: 13})
}

// goldenFns runs the oracle comparison for one aggregation function under
// disorder on a sliding window.
func goldenFn[A any](t *testing.T, f aggregate.Function[float64, A, float64], d stream.Disorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	ev := genEvents(rng, streamLen(2000))
	ag := New[float64](f, Options{Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Sliding(stream.Time, 120, 40))
	items := stream.Prepare(stream.Watermarker{Period: 100, Lag: d.MaxDelay + 1}, stream.Apply(d, ev))

	finals := map[key]Result[float64]{}
	for _, it := range items {
		var rs []Result[float64]
		if it.Kind == stream.KindEvent {
			rs = ag.ProcessElement(it.Event)
		} else {
			rs = ag.ProcessWatermark(it.Watermark)
		}
		for _, r := range rs {
			finals[key{r.Query, r.Start, r.End}] = r
		}
	}
	want := reference.Finals(f, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 120, Slide: 40}, ev, stream.MaxTime)
	for _, w := range want {
		got, ok := finals[key{qid, w.Start, w.End}]
		if !ok {
			t.Fatalf("%s: missing window [%d,%d)", f.Props().Name, w.Start, w.End)
		}
		if !approx(got.Value, w.Value) {
			t.Fatalf("%s window [%d,%d): got %v want %v", f.Props().Name, w.Start, w.End, got.Value, w.Value)
		}
	}
}

func TestGoldenAggregationFunctions(t *testing.T) {
	d := stream.Disorder{Fraction: 0.3, MaxDelay: 400, Seed: 5}
	fns := []aggregate.Function[float64, float64, float64]{
		aggregate.Sum[float64](ident),
		aggregate.NaiveSum[float64](ident),
		aggregate.Min[float64](ident),
		aggregate.Max[float64](ident),
	}
	for _, f := range fns {
		t.Run(f.Props().Name, func(t *testing.T) { goldenFn[float64](t, f, d) })
	}
	t.Run("mean", func(t *testing.T) { goldenFn[aggregate.MeanAgg](t, aggregate.Mean[float64](ident), d) })
	t.Run("stddev", func(t *testing.T) { goldenFn[aggregate.VarAgg](t, aggregate.StdDev[float64](ident), d) })
	t.Run("first", func(t *testing.T) { goldenFn[aggregate.Sample](t, aggregate.First[float64](ident), d) })
	t.Run("last", func(t *testing.T) { goldenFn[aggregate.Sample](t, aggregate.Last[float64](ident), d) })
	t.Run("median", func(t *testing.T) { goldenFn[*rle.Multiset](t, aggregate.Median[float64](ident), d) })
	t.Run("p90", func(t *testing.T) { goldenFn[*rle.Multiset](t, aggregate.Percentile[float64](0.9, ident), d) })
}

func TestGoldenNonCommutativeCollect(t *testing.T) {
	// Collect is non-commutative: under disorder the operator must store
	// tuples and recompute, and the final lists must equal the canonical
	// order.
	rng := rand.New(rand.NewSource(3))
	ev := genEvents(rng, 800)
	f := aggregate.Collect[float64](ident)
	ag := New[float64](f, Options{Lateness: 1 << 40})
	qid := ag.MustAddQuery(window.Tumbling(stream.Time, 100))
	if err := feedAndCompareCollect(ag, qid, ev); err != "" {
		t.Fatal(err)
	}
	if !ag.StoresTuples() {
		t.Fatal("non-commutative function under disorder must store tuples")
	}
}

func feedAndCompareCollect(ag *Aggregator[float64, []float64, []float64], qid int, ev []stream.Event[float64]) string {
	d := stream.Disorder{Fraction: 0.3, MaxDelay: 300, Seed: 9}
	items := stream.Prepare(stream.Watermarker{Period: 100, Lag: d.MaxDelay + 1}, stream.Apply(d, ev))
	finals := map[key][]float64{}
	for _, it := range items {
		var rs []Result[[]float64]
		if it.Kind == stream.KindEvent {
			rs = ag.ProcessElement(it.Event)
		} else {
			rs = ag.ProcessWatermark(it.Watermark)
		}
		for _, r := range rs {
			cp := append([]float64(nil), r.Value...)
			finals[key{r.Query, r.Start, r.End}] = cp
		}
	}
	f := aggregate.Collect[float64](ident)
	want := reference.Finals(f, reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 100, Slide: 100}, ev, stream.MaxTime)
	for _, w := range want {
		got, ok := finals[key{qid, w.Start, w.End}]
		if !ok {
			return fmt.Sprintf("missing window [%d,%d)", w.Start, w.End)
		}
		if len(got) != len(w.Value) {
			return fmt.Sprintf("window [%d,%d): got len %d want %d", w.Start, w.End, len(got), len(w.Value))
		}
		for i := range got {
			if got[i] != w.Value[i] {
				return fmt.Sprintf("window [%d,%d) pos %d: got %v want %v (order broken)", w.Start, w.End, i, got[i], w.Value[i])
			}
		}
	}
	return ""
}

package baselines

import (
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Every baseline must agree with the brute-force oracle — the same invariant
// the slicing core is held to, so all techniques are interchangeable in the
// benchmark harness.

func ident(v float64) float64 { return v }

func genEvents(rng *rand.Rand, n int) []stream.Event[float64] {
	ev := make([]stream.Event[float64], 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.1:
			// tie
		case r < 0.85:
			ts += int64(1 + rng.Intn(40))
		default:
			ts += int64(200 + rng.Intn(400))
		}
		ev = append(ev, stream.Event[float64]{Time: ts, Seq: int64(i), Value: float64(rng.Intn(100))})
	}
	return ev
}

// emitted feeds items through op, one call per item, and returns every row
// it emitted, in order.
func emitted(op Operator[float64, float64], items []stream.Item[float64]) []reference.Row {
	var rows []reference.Row
	for _, it := range items {
		var rs []Result[float64]
		if it.Kind == stream.KindEvent {
			rs = op.ProcessElement(it.Event)
		} else {
			rs = op.ProcessWatermark(it.Watermark)
		}
		for _, r := range rs {
			rows = append(rows, reference.Row{Query: r.Query, Start: r.Start, End: r.End, N: r.N, Value: r.Value, Update: r.Update})
		}
	}
	return rows
}

// checkQuery holds query qid's rows against the oracle's windows of q over
// ev (reference.Check; techniques may skip empty windows, as buckets do).
func checkQuery(t *testing.T, label string, rows []reference.Row, qid int, q reference.Query[float64], ev []stream.Event[float64]) {
	t.Helper()
	var mine []reference.Row
	for _, r := range rows {
		if r.Query == qid {
			mine = append(mine, r)
		}
	}
	want := reference.Want{Rows: reference.Windows(aggregate.Sum[float64](ident), q, qid, nil, ev, stream.MaxTime), Final: stream.MaxTime,
		Recut: map[int]bool{qid: q.Recut()}}
	if v := reference.Check(mine, want); v.Failed() > 0 {
		t.Errorf("%s: query %d: %v", label, qid, v)
	}
}

// refQueries are the standard golden workload: tumbling + sliding + session.
var refQueries = []struct {
	def func() window.Definition
	ref reference.Query[float64]
}{
	{func() window.Definition { return window.Tumbling(stream.Time, 50) },
		reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 50, Slide: 50}},
	{func() window.Definition { return window.Sliding(stream.Time, 100, 30) },
		reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Time, Length: 100, Slide: 30}},
	{func() window.Definition { return window.Session[float64](150) },
		reference.Query[float64]{Kind: reference.Session, Gap: 150}},
}

func goldenBaseline(t *testing.T, label string, mk func() Operator[float64, float64], d stream.Disorder, sessions bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	ev := genEvents(rng, 2500)
	op := mk()
	ids := map[int]reference.Query[float64]{}
	for _, q := range refQueries {
		if q.ref.Kind == reference.Session && !sessions {
			continue
		}
		ids[op.AddQuery(q.def())] = q.ref
	}
	wmPeriod := int64(100)
	if d.None() {
		wmPeriod = 0
	}
	items := stream.Prepare(stream.Watermarker{Period: wmPeriod, Lag: d.MaxDelay + 1}, stream.Apply(d, ev))
	rows := emitted(op, items)
	for id, rq := range ids {
		checkQuery(t, label, rows, id, rq, ev)
	}
}

var disorder20 = stream.Disorder{Fraction: 0.2, MaxDelay: 500, Seed: 77}

func TestTupleBufferInOrder(t *testing.T) {
	goldenBaseline(t, "tuplebuffer/inorder", func() Operator[float64, float64] {
		return NewTupleBuffer(aggregate.Sum[float64](ident), true, 0)
	}, stream.Disorder{}, true)
}

func TestTupleBufferOutOfOrder(t *testing.T) {
	goldenBaseline(t, "tuplebuffer/ooo", func() Operator[float64, float64] {
		return NewTupleBuffer(aggregate.Sum[float64](ident), false, 1<<40)
	}, disorder20, true)
}

func TestAggTreeInOrder(t *testing.T) {
	goldenBaseline(t, "aggtree/inorder", func() Operator[float64, float64] {
		return NewAggTree(aggregate.Sum[float64](ident), true, 0)
	}, stream.Disorder{}, true)
}

func TestAggTreeOutOfOrder(t *testing.T) {
	goldenBaseline(t, "aggtree/ooo", func() Operator[float64, float64] {
		return NewAggTree(aggregate.Sum[float64](ident), false, 1<<40)
	}, disorder20, true)
}

func TestBucketsInOrder(t *testing.T) {
	goldenBaseline(t, "buckets/inorder", func() Operator[float64, float64] {
		return NewBuckets(aggregate.Sum[float64](ident), false, true, 0)
	}, stream.Disorder{}, true)
}

func TestBucketsOutOfOrder(t *testing.T) {
	goldenBaseline(t, "buckets/ooo", func() Operator[float64, float64] {
		return NewBuckets(aggregate.Sum[float64](ident), false, false, 1<<40)
	}, disorder20, true)
}

func TestBucketsTupleModeOutOfOrder(t *testing.T) {
	goldenBaseline(t, "buckets/tuples/ooo", func() Operator[float64, float64] {
		return NewBuckets(aggregate.Sum[float64](ident), true, false, 1<<40)
	}, disorder20, true)
}

func TestPairsInOrder(t *testing.T) {
	goldenBaseline(t, "pairs/inorder", func() Operator[float64, float64] {
		return NewPairs(aggregate.Sum[float64](ident))
	}, stream.Disorder{}, false)
}

func TestCuttyInOrder(t *testing.T) {
	goldenBaseline(t, "cutty/inorder", func() Operator[float64, float64] {
		return NewCutty(aggregate.Sum[float64](ident))
	}, stream.Disorder{}, false)
}

func TestCountWindowsAcrossBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ev := genEvents(rng, 1500)
	f := aggregate.Sum[float64](ident)
	want := reference.Query[float64]{Kind: reference.Periodic, Measure: stream.Count, Length: 60, Slide: 25}

	cases := []struct {
		label string
		mk    func() Operator[float64, float64]
		d     stream.Disorder
	}{
		{"tuplebuffer/count/inorder", func() Operator[float64, float64] { return NewTupleBuffer(f, true, 0) }, stream.Disorder{}},
		{"tuplebuffer/count/ooo", func() Operator[float64, float64] { return NewTupleBuffer(f, false, 1<<40) }, disorder20},
		{"aggtree/count/ooo", func() Operator[float64, float64] { return NewAggTree(f, false, 1<<40) }, disorder20},
		{"buckets/count/inorder", func() Operator[float64, float64] { return NewBuckets(f, true, true, 0) }, stream.Disorder{}},
		{"buckets/count/ooo", func() Operator[float64, float64] { return NewBuckets(f, true, false, 1<<40) }, disorder20},
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			op := c.mk()
			qid := op.AddQuery(window.Sliding(stream.Count, 60, 25))
			wmPeriod := int64(100)
			if c.d.None() {
				wmPeriod = 0
			}
			items := stream.Prepare(stream.Watermarker{Period: wmPeriod, Lag: c.d.MaxDelay + 1}, stream.Apply(c.d, ev))
			checkQuery(t, c.label, emitted(op, items), qid, want, ev)
		})
	}
}

func TestTupleBufferCountsCopies(t *testing.T) {
	tb := NewTupleBuffer(aggregate.Sum[float64](ident), false, 1<<40)
	tb.AddQuery(window.Tumbling(stream.Time, 100))
	tb.ProcessElement(stream.Event[float64]{Time: 10, Seq: 0, Value: 1})
	tb.ProcessElement(stream.Event[float64]{Time: 30, Seq: 1, Value: 1})
	tb.ProcessElement(stream.Event[float64]{Time: 20, Seq: 2, Value: 1}) // mid-buffer insert
	if tb.Copies() == 0 {
		t.Error("out-of-order insert should count memory copies")
	}
}

func TestBucketsRedundantAssignments(t *testing.T) {
	// One sliding window l=20, slide=2 → every tuple lands in 10 buckets.
	b := NewBuckets(aggregate.Sum[float64](ident), false, true, 0)
	b.AddQuery(window.Sliding(stream.Time, 20, 2))
	for ts := int64(100); ts < 200; ts++ {
		b.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	per := float64(b.Assigns()) / 100
	if per < 9 || per > 11 {
		t.Errorf("expected ~10 bucket assignments per tuple, got %.1f", per)
	}
}

func TestPairsSliceCountBounded(t *testing.T) {
	p := NewPairs(aggregate.Sum[float64](ident))
	p.AddQuery(window.Sliding(stream.Time, 20, 5))
	for ts := int64(0); ts < 10000; ts++ {
		p.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	if p.NumSlices() > 16 {
		t.Errorf("pairs slices should stay bounded by the window horizon, got %d", p.NumSlices())
	}
}

func TestCuttyFewerSlicesThanPairs(t *testing.T) {
	// Cutty cuts at starts only; Pairs cuts starts and ends. For l=19,
	// s=5 the end family adds extra edges.
	pr := NewPairs(aggregate.Sum[float64](ident))
	pr.AddQuery(window.Sliding(stream.Time, 19, 5))
	cu := NewCutty(aggregate.Sum[float64](ident))
	cu.AddQuery(window.Sliding(stream.Time, 19, 5))
	for ts := int64(0); ts < 1000; ts++ {
		e := stream.Event[float64]{Time: ts, Seq: ts, Value: 1}
		pr.ProcessElement(e)
		cu.ProcessElement(e)
	}
	if cu.NumSlices() >= pr.NumSlices() {
		t.Errorf("cutty should maintain fewer slices: cutty=%d pairs=%d", cu.NumSlices(), pr.NumSlices())
	}
}

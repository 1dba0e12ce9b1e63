package fleet

import (
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/stream"
	"scotty/internal/window"
)

func newSumFleet(opts Options) *Fleet[stream.Tuple, float64, float64] {
	return New(aggregate.Sum(stream.Val), opts)
}

// feed pushes n synthetic events (value 1, advancing time by dt) followed by a
// watermark at the max event time, collecting all emissions.
func feed(fl *Fleet[stream.Tuple, float64, float64], n int, dt int64) seqMap {
	got := make(seqMap)
	var t int64
	for i := 0; i < n; i++ {
		collect(got, fl.ProcessElement(stream.Event[stream.Tuple]{Time: t, Value: stream.Tuple{V: 1}}))
		t += dt
	}
	collect(got, fl.ProcessWatermark(t))
	return got
}

// TestDedupSharesPhysical: five identical registrations collapse onto one
// physical spec, and every subscriber receives identical fan-out emissions.
func TestDedupSharesPhysical(t *testing.T) {
	fl := newSumFleet(Options{})
	var ids []int
	for i := 0; i < 5; i++ {
		ids = append(ids, fl.MustAddQuery(window.Sliding(stream.Time, 4000, 250)))
	}
	p := fl.Plan()
	if p.Logical != 5 || p.Specs != 1 {
		t.Fatalf("dedup failed: %+v", p)
	}
	if p.Physical != 1 {
		t.Fatalf("want exactly one physical query (the lone sliding spec factors), got %+v", p)
	}
	if p.Factored != 1 {
		t.Fatalf("cost model should factor a lone heavily-overlapping sliding query: %+v", p)
	}

	got := feed(fl, 200, 50) // events at t=0..9950
	base := got[ids[0]]
	if len(base) == 0 {
		t.Fatal("no emissions")
	}
	for _, id := range ids[1:] {
		es := got[id]
		if len(es) != len(base) {
			t.Fatalf("query %d got %d emissions, query %d got %d", id, len(es), ids[0], len(base))
		}
		for i := range es {
			if es[i] != base[i] {
				t.Fatalf("query %d emission %d = %+v, want %+v", id, i, es[i], base[i])
			}
		}
	}
}

// TestDedupAllocationGate: registering (and unregistering) a duplicate of an
// existing window is O(1) state and allocation-free in steady state — the
// whole point of deduping 4096-query fleets cheaply.
func TestDedupAllocationGate(t *testing.T) {
	fl := newSumFleet(Options{})
	fl.MustAddQuery(window.Sliding(stream.Time, 4000, 250))
	// Pre-grow subs/order capacity and the logical map.
	warm := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		warm = append(warm, fl.MustAddQuery(window.Sliding(stream.Time, 4000, 250)))
	}
	for _, id := range warm {
		fl.RemoveQuery(id)
	}
	// The duplicate path never retains the definition (canonical identity
	// only), so one instance can serve every probe.
	def := window.Sliding(stream.Time, 4000, 250)
	allocs := testing.AllocsPerRun(200, func() {
		id := fl.MustAddQuery(def)
		fl.RemoveQuery(id)
	})
	if allocs > 0 {
		t.Fatalf("duplicate add/remove allocates %.1f objects per op, want 0", allocs)
	}
}

// TestRemoveQueryStopsEmitting: a removed logical query produces nothing after
// removal, while surviving subscribers of the same spec keep emitting.
func TestRemoveQueryStopsEmitting(t *testing.T) {
	fl := newSumFleet(Options{})
	keep := fl.MustAddQuery(window.Sliding(stream.Time, 2000, 500))
	drop := fl.MustAddQuery(window.Sliding(stream.Time, 2000, 500))

	got := make(seqMap)
	var tm int64
	push := func(n int) {
		for i := 0; i < n; i++ {
			collect(got, fl.ProcessElement(stream.Event[stream.Tuple]{Time: tm, Value: stream.Tuple{V: 1}}))
			tm += 100
		}
		collect(got, fl.ProcessWatermark(tm))
	}
	push(50)
	if len(got[drop]) == 0 {
		t.Fatal("query emitted nothing before removal")
	}
	seen := len(got[drop])
	fl.RemoveQuery(drop)
	push(50)
	if len(got[drop]) != seen {
		t.Fatalf("removed query emitted %d more results", len(got[drop])-seen)
	}
	if len(got[keep]) <= seen {
		t.Fatal("surviving duplicate stopped emitting after peer removal")
	}
	if p := fl.Plan(); p.Logical != 1 {
		t.Fatalf("plan after removal: %+v", p)
	}
}

// TestRemoveLastSubscriberReleasesPhysical: removing the last subscriber of a
// distinct window releases its physical query (and dissolves a factor group
// that loses all members).
func TestRemoveLastSubscriberReleasesPhysical(t *testing.T) {
	fl := newSumFleet(Options{})
	a := fl.MustAddQuery(window.Sliding(stream.Time, 4000, 250))
	b := fl.MustAddQuery(window.Tumbling(stream.Time, 3000))
	if p := fl.Plan(); p.Specs != 2 {
		t.Fatalf("setup: %+v", p)
	}
	fl.RemoveQuery(a)
	p := fl.Plan()
	if p.Specs != 1 || len(p.Factors) != 0 {
		t.Fatalf("factor group not dissolved: %+v", p)
	}
	fl.RemoveQuery(b)
	p = fl.Plan()
	if p.Logical != 0 || p.Physical != 0 || p.Specs != 0 {
		t.Fatalf("empty fleet still holds state: %+v", p)
	}
}

// TestDynamicFleetMatchesUnshared scripts runtime AddQuery/RemoveQuery against
// both a fleet and an unshared core aggregator (which supports the same
// dynamic registration) and requires identical per-query emissions. Logical
// ids line up because both sides assign sequentially.
func TestDynamicFleetMatchesUnshared(t *testing.T) {
	type step struct {
		events int // events to push before this action
		add    window.Definition
		addU   window.Definition // same def, fresh instance for the unshared side
		remove int               // logical id to remove; -1 = none
	}
	mk := func(l, s int64) (window.Definition, window.Definition) {
		return window.Sliding(stream.Time, l, s), window.Sliding(stream.Time, l, s)
	}
	d0, u0 := mk(2000, 250)
	d1, u1 := mk(4000, 250)
	d2, u2 := mk(8000, 250)
	d3, u3 := mk(2000, 250) // duplicate of d0
	d4, u4 := mk(3000, 1000)
	steps := []step{
		{0, d0, u0, -1},
		{0, d1, u1, -1},
		{120, d2, u2, -1}, // mid-stream add: drains, then flips onto the ring
		{80, d3, u3, -1},  // mid-stream duplicate
		{60, nil, nil, 1}, // remove a factored member mid-stream
		{60, d4, u4, -1},
		{100, nil, nil, 0},
		{120, nil, nil, -1},
	}

	fl := newSumFleet(Options{})
	ag := core.New(aggregate.Sum(stream.Val), core.Options{})
	gotF, gotU := make(seqMap), make(seqMap)

	ev := stream.Generate(stream.Football(), 2000, 42)
	items := stream.Prepare(stream.Watermarker{Period: 500, Lag: 1}, ev)
	pos := 0
	push := func(n int) {
		for ; n > 0 && pos < len(items); pos++ {
			it := items[pos]
			if it.Kind == stream.KindEvent {
				collect(gotF, fl.ProcessElement(it.Event))
				collect(gotU, ag.ProcessElement(it.Event))
				n--
			} else {
				collect(gotF, fl.ProcessWatermark(it.Watermark))
				collect(gotU, ag.ProcessWatermark(it.Watermark))
			}
		}
	}
	for _, st := range steps {
		push(st.events)
		if st.add != nil {
			idF := fl.MustAddQuery(st.add)
			idU := ag.MustAddQuery(st.addU)
			if idF != idU {
				t.Fatalf("id drift: fleet %d, unshared %d", idF, idU)
			}
		}
		if st.remove >= 0 {
			fl.RemoveQuery(st.remove)
			ag.RemoveQuery(st.remove)
		}
	}
	push(len(items))
	same(t, "dynamic", gotU, gotF)
	if t.Failed() {
		t.Fatalf("plan: %+v", fl.Plan())
	}
}

// TestMetricsGauges: the four sharing metrics are registered on the fleet's
// registry and track the plan.
func TestMetricsGauges(t *testing.T) {
	fl := newSumFleet(Options{})
	for i := 0; i < 4; i++ {
		fl.MustAddQuery(window.Sliding(stream.Time, int64(1+i)*2000, 250))
	}
	fl.MustAddQuery(window.Sliding(stream.Time, 2000, 250)) // duplicate
	feed(fl, 300, 50)

	r := fl.Registry()
	if v := r.Gauge("query_logical_total").Value(); v != 5 {
		t.Fatalf("query_logical_total = %d, want 5", v)
	}
	p := fl.Plan()
	if v := r.Gauge("query_physical_total").Value(); v != int64(p.Physical) {
		t.Fatalf("query_physical_total = %d, plan says %d", v, p.Physical)
	}
	if p.Physical >= p.Logical {
		t.Fatalf("sharing saved nothing: %+v", p)
	}
	if r.Counter("rewrite_hits_total").Value() == 0 {
		t.Fatal("rewrite_hits_total flat")
	}
	if r.Counter("slice_touches_saved_total").Value() == 0 {
		t.Fatal("slice_touches_saved_total flat")
	}
}

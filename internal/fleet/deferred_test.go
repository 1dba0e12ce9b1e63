package fleet

import (
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// burst is one step of a dynamic-fleet script: events to push first, then a
// burst of registrations and removals with no input between them — one plan.
type burst struct {
	events int
	add    []ls
	remove []int // logical ids
}

var burstScript = []burst{
	{0, []ls{{2000, 250}, {4000, 250}, {2000, 1000}}, nil},
	{120, []ls{{8000, 250}, {6000, 500}, {3000, 1000}}, nil}, // mid-stream: members drain, then flip onto the ring
	{80, []ls{{2000, 250}, {16000, 250}}, []int{1}},          // a duplicate, a new member, a factored member gone
	{60, []ls{{5000, 1000}}, []int{5, 8}},                    // id 8 is added and taken back within one burst
	{100, nil, []int{0, 3, 4}},                               // the group loses most of its members at once
	{120, []ls{{4000, 250}, {1000, 250}}, nil},
	{150, nil, nil},
}

// runBursts plays the script against a fleet (through ProcessBatch, chunk
// items to a call) and an unshared core aggregator registering the same
// queries one by one. Logical ids line up: both sides assign sequentially.
func runBursts(t *testing.T, chunk int) (gotF, gotU seqMap, nq int, fl *Fleet[stream.Tuple, float64, float64]) {
	t.Helper()
	fl = newSumFleet(Options{})
	ag := core.New(aggregate.Sum(stream.Val), core.Options{})
	gotF, gotU = make(seqMap), make(seqMap)

	ev := stream.Generate(stream.Football(), 2400, 42)
	items := stream.Prepare(stream.Watermarker{Period: 500, Lag: 1}, ev)
	pos := 0
	push := func(n int) {
		end := pos
		for ; n > 0 && end < len(items); end++ {
			if items[end].Kind == stream.KindEvent {
				n--
			}
		}
		for _, it := range items[pos:end] {
			if it.Kind == stream.KindEvent {
				collect(gotU, ag.ProcessElement(it.Event))
			} else {
				collect(gotU, ag.ProcessWatermark(it.Watermark))
			}
		}
		for ; pos < end; pos += chunk {
			collect(gotF, fl.ProcessBatch(items[pos:min(pos+chunk, end)]))
		}
		pos = end
	}
	for _, st := range burstScript {
		push(st.events)
		runs := fl.Registry().Counter("fleet_plan_runs_total").Value()
		for _, q := range st.add {
			idF := fl.MustAddQuery(window.Sliding(stream.Time, q.length, q.slide))
			idU := ag.MustAddQuery(window.Sliding(stream.Time, q.length, q.slide))
			if idF != idU {
				t.Fatalf("id drift: fleet %d, unshared %d", idF, idU)
			}
			nq = idF + 1
		}
		for _, id := range st.remove {
			fl.RemoveQuery(id)
			ag.RemoveQuery(id)
		}
		if after := fl.Registry().Counter("fleet_plan_runs_total").Value(); after != runs {
			t.Fatalf("a burst planned %d times before any input followed it", after-runs)
		}
	}
	push(len(items))
	return gotF, gotU, nq, fl
}

// TestBurstsMidStreamMatchUnshared: with planning deferred to the next batch,
// a fleet reshaped by bursts of AddQuery/RemoveQuery mid-stream still emits,
// per logical query, exactly what an unshared operator emits — the oracle of
// TestDynamicFleetMatchesUnshared, one item to a ProcessBatch call so that
// emission order is comparable — and with larger batches the same final
// value for every window.
func TestBurstsMidStreamMatchUnshared(t *testing.T) {
	gotF, gotU, nq, fl := runBursts(t, 1)
	diffSeqs(t, "bursts", gotU, gotF, nq)
	p := fl.Plan()
	if t.Failed() {
		t.Fatalf("plan: %+v", p)
	}
	if p.RewriteHits == 0 || p.Factored == 0 {
		t.Fatalf("the script never emitted from a factor ring: %+v", p)
	}
	if runs := fl.Registry().Counter("fleet_plan_runs_total").Value(); runs != 6 {
		t.Fatalf("fleet_plan_runs_total = %d, want one per burst that changed the spec set (6)", runs)
	}

	gotF, gotU, _, _ = runBursts(t, 64)
	want, got := finals(gotU), finals(gotF)
	if len(got) != len(want) {
		t.Fatalf("batched: %d final windows, unshared has %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("batched: window %+v: fleet %+v (present %v), unshared %+v", k, g, ok, v)
		}
	}
}

// TestSnapshotWhilePlanIsDirty: a snapshot taken between a burst of
// registrations and the next input plans first, so the restored fleet has
// the plan the original goes on with and emits the same rows.
func TestSnapshotWhilePlanIsDirty(t *testing.T) {
	ev := stream.Generate(stream.Football(), 12000, 17)
	items := stream.Prepare(stream.Watermarker{Period: 1000, Lag: 1}, ev)
	half := len(items) / 2
	run := func(f *Fleet[stream.Tuple, float64, float64], dst seqMap, part []stream.Item[stream.Tuple]) {
		for i := 0; i < len(part); i += 32 {
			collect(dst, f.ProcessBatch(part[i:min(i+32, len(part))]))
		}
	}

	fl := newSumFleet(Options{})
	register(fl, []ls{{4000, 250}, {2000, 1000}})
	run(fl, make(seqMap), items[:half])
	ids := register(fl, []ls{{8000, 250}, {6000, 500}, {4000, 250}})
	fl.RemoveQuery(0) // the duplicate keeps the spec alive
	if !fl.dirty {
		t.Fatal("the burst left the plan clean; the test needs it dirty")
	}
	data, err := fl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fl.dirty {
		t.Fatal("Snapshot serialized a fleet whose plan was still due")
	}
	rest := newSumFleet(Options{})
	if err := rest.Restore(data); err != nil {
		t.Fatal(err)
	}
	if op, rp := fl.Plan(), rest.Plan(); op.Logical != rp.Logical || op.Physical != rp.Physical ||
		op.Specs != rp.Specs || op.Factored != rp.Factored || op.Draining != rp.Draining || op.Draining == 0 {
		t.Fatalf("restored plan differs (or nothing drains): orig %+v, restored %+v", op, rp)
	}

	want, got := make(seqMap), make(seqMap)
	run(fl, want, items[half:])
	run(rest, got, items[half:])
	for _, q := range append([]int{1}, ids...) {
		w, g := want[q], got[q]
		if len(w) == 0 || len(w) != len(g) {
			t.Fatalf("query %d: restored emitted %d rows, original %d", q, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("query %d emission %d: restored %+v, original %+v", q, i, g[i], w[i])
			}
		}
	}
	if p := fl.Plan(); p.Draining != 0 || p.Factored < 3 {
		t.Fatalf("the mid-stream members never flipped onto the ring: %+v", p)
	}
}

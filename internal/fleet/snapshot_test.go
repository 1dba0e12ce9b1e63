package fleet

import (
	"errors"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fleetParams is a workload that exercises every restore path: a merged
// factor group, a duplicate, a session window, and a direct (barely
// overlapping) periodic window.
func snapshotParams() []winParam {
	return []winParam{
		{length: 4000, slide: 250},
		{length: 8000, slide: 250},
		{length: 4000, slide: 250}, // duplicate
		{session: true, length: 900},
		{length: 2000, slide: 1000}, // stays direct
	}
}

// TestSnapshotRoundTrip: snapshot a factored fleet mid-stream, restore into a
// freshly constructed fleet with no pre-registered queries (parametric windows
// rebuild from canonical form), and require emission-identical continuations.
func TestSnapshotRoundTrip(t *testing.T) {
	d := stream.Disorder{Fraction: 0.15, MaxDelay: 600, Seed: 4}
	ev := stream.Generate(stream.Football(), 16000, 11)
	items := stream.Prepare(stream.Watermarker{Period: 1000, Lag: d.MaxDelay + 1}, stream.Apply(d, ev))
	half := len(items) / 2

	opts := Options{Options: core.Options{Lateness: 1200}}
	orig := New(aggregate.Sum(stream.Val), opts)
	for _, p := range snapshotParams() {
		orig.MustAddQuery(p.def())
	}
	pre := make(seqMap)
	for _, it := range items[:half] {
		if it.Kind == stream.KindEvent {
			collect(pre, orig.ProcessElement(it.Event))
		} else {
			collect(pre, orig.ProcessWatermark(it.Watermark))
		}
	}
	if p := orig.Plan(); p.Factored == 0 {
		t.Fatalf("workload did not factor: %+v", p)
	}

	data, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	rest := New(aggregate.Sum(stream.Val), opts)
	if err := rest.Restore(data); err != nil {
		t.Fatal(err)
	}
	if op, rp := orig.Plan(), rest.Plan(); op.Logical != rp.Logical || op.Physical != rp.Physical ||
		op.Specs != rp.Specs || op.Factored != rp.Factored || op.Draining != rp.Draining {
		t.Fatalf("restored plan differs: orig %+v, restored %+v", op, rp)
	}

	wantTail, gotTail := make(seqMap), make(seqMap)
	for _, it := range items[half:] {
		if it.Kind == stream.KindEvent {
			collect(wantTail, orig.ProcessElement(it.Event))
			collect(gotTail, rest.ProcessElement(it.Event))
		} else {
			collect(wantTail, orig.ProcessWatermark(it.Watermark))
			collect(gotTail, rest.ProcessWatermark(it.Watermark))
		}
	}
	same(t, "restored-continuation", wantTail, gotTail)
}

// TestSnapshotDynamicShape: a fleet reshaped at runtime (adds, removes, a
// draining spec created mid-stream) snapshots and restores to the same shape
// — including logical ids that no longer start at zero.
func TestSnapshotDynamicShape(t *testing.T) {
	ev := stream.Generate(stream.Football(), 12000, 13)
	items := stream.Prepare(stream.Watermarker{Period: 1000, Lag: 1}, ev)

	fl := New(aggregate.Sum(stream.Val), Options{})
	a := fl.MustAddQuery(window.Sliding(stream.Time, 4000, 250))
	fl.MustAddQuery(window.Sliding(stream.Time, 2000, 500))

	third := len(items) / 3
	run := func(f *Fleet[stream.Tuple, float64, float64], dst seqMap, part []stream.Item[stream.Tuple]) {
		for _, it := range part {
			if it.Kind == stream.KindEvent {
				collect(dst, f.ProcessElement(it.Event))
			} else {
				collect(dst, f.ProcessWatermark(it.Watermark))
			}
		}
	}
	run(fl, make(seqMap), items[:third])
	fl.RemoveQuery(a)
	c := fl.MustAddQuery(window.Sliding(stream.Time, 8000, 250)) // mid-stream: drains
	run(fl, make(seqMap), items[third:2*third])

	data, err := fl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rest := New(aggregate.Sum(stream.Val), Options{})
	if err := rest.Restore(data); err != nil {
		t.Fatal(err)
	}

	want, got := make(seqMap), make(seqMap)
	run(fl, want, items[2*third:])
	run(rest, got, items[2*third:])
	for _, q := range []int{1, c} {
		w, g := want[q], got[q]
		if len(w) != len(g) {
			t.Fatalf("query %d: restored emitted %d, original %d", q, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("query %d emission %d: restored %+v, original %+v", q, i, g[i], w[i])
			}
		}
		if len(w) == 0 {
			t.Fatalf("query %d emitted nothing in the tail", q)
		}
	}
}

// TestRestoreRejectsNonVirgin: restoring over a fleet that has already seen
// data must fail (and leave the target untouched).
func TestRestoreRejectsNonVirgin(t *testing.T) {
	src := newSumFleet(Options{})
	src.MustAddQuery(window.Tumbling(stream.Time, 1000))
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dst := newSumFleet(Options{})
	dst.MustAddQuery(window.Tumbling(stream.Time, 1000))
	dst.ProcessElement(stream.Event[stream.Tuple]{Time: 5, Value: stream.Tuple{V: 1}})
	if err := dst.Restore(data); !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Fatalf("restore into non-virgin fleet: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestRestoreRejectsForeignBytes: garbage and truncated payloads are refused
// with a diagnosable error, not a panic.
func TestRestoreRejectsForeignBytes(t *testing.T) {
	fl := newSumFleet(Options{})
	if err := fl.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	src := newSumFleet(Options{})
	src.MustAddQuery(window.Tumbling(stream.Time, 1000))
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if err := newSumFleet(Options{}).Restore(data[:cut]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// A raw core snapshot is not a fleet snapshot.
	ag := core.New(aggregate.Sum(stream.Val), core.Options{})
	ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
	coreData, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := newSumFleet(Options{}).Restore(coreData); err == nil {
		t.Fatal("core snapshot accepted as fleet snapshot")
	}
}

package stream

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministicAndWellFormed(t *testing.T) {
	a := Generate(Football(), 5000, 42)
	b := Generate(Football(), 5000, 42)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
		if a[i].Seq != int64(i) {
			t.Fatalf("seq %d at index %d", a[i].Seq, i)
		}
		if i > 0 && a[i].Time < a[i-1].Time {
			t.Fatalf("generated stream out of order at %d", i)
		}
	}
	c := Generate(Football(), 5000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProfileRateAndCardinality(t *testing.T) {
	for _, p := range []Profile{Football(), Machine()} {
		n := 20000
		ev := Generate(p, n, 1)
		span := ev[len(ev)-1].Time - ev[0].Time
		rate := float64(n) / (float64(span) / 1000)
		if rate < float64(p.Rate)/2 || rate > float64(p.Rate)*2 {
			t.Errorf("%s: rate %.0f ev/s, profile says %d", p.Name, rate, p.Rate)
		}
		distinct := map[float64]bool{}
		for _, e := range ev {
			distinct[e.Value.V] = true
		}
		if p.DistinctValues < 100 && len(distinct) > p.DistinctValues {
			t.Errorf("%s: %d distinct values, cap %d", p.Name, len(distinct), p.DistinctValues)
		}
	}
}

func TestGenerateInjectsSessionGaps(t *testing.T) {
	p := Football()
	ev := Generate(p, 120000, 7) // one minute of event time
	gaps := 0
	for i := 1; i < len(ev); i++ {
		if ev[i].Time-ev[i-1].Time >= p.GapLength {
			gaps++
		}
	}
	if gaps < 3 {
		t.Fatalf("expected several session gaps per minute, saw %d", gaps)
	}
}

func TestDisorderPreservesMultisetAndBoundsDelay(t *testing.T) {
	ev := Generate(Machine(), 3000, 5)
	d := Disorder{Fraction: 0.3, MinDelay: 100, MaxDelay: 900, Seed: 9}
	out := Apply(d, ev)
	if len(out) != len(ev) {
		t.Fatal("length changed")
	}
	seen := map[int64]Event[Tuple]{}
	for _, e := range out {
		seen[e.Seq] = e
	}
	for _, e := range ev {
		if seen[e.Seq] != e {
			t.Fatal("event mutated or lost")
		}
	}
	// A tuple can arrive at most MaxDelay behind the front.
	maxTS := MinTime
	for _, e := range out {
		if e.Time > maxTS {
			maxTS = e.Time
		}
		if maxTS-e.Time > d.MaxDelay {
			t.Fatalf("tuple delayed by %d > MaxDelay %d", maxTS-e.Time, d.MaxDelay)
		}
	}
	if CountOutOfOrder(out) == 0 {
		t.Fatal("expected out-of-order tuples")
	}
	if CountOutOfOrder(ev) != 0 {
		t.Fatal("the in-order input already counts as disordered?")
	}
}

func TestDisorderFractionRoughlyRespected(t *testing.T) {
	ev := Generate(Football(), 20000, 3)
	out := Apply(Disorder{Fraction: 0.2, MaxDelay: 2000, Seed: 4}, ev)
	frac := float64(CountOutOfOrder(out)) / float64(len(out))
	// Some delayed tuples still arrive in order; the observed fraction is
	// below the requested one but must be substantial.
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("observed out-of-order fraction %.3f for requested 0.2", frac)
	}
}

func TestNoDisorderIsIdentity(t *testing.T) {
	ev := Generate(Machine(), 100, 1)
	out := Apply(Disorder{}, ev)
	for i := range ev {
		if out[i] != ev[i] {
			t.Fatal("zero disorder must keep arrival order")
		}
	}
}

func TestPrepareWatermarkContract(t *testing.T) {
	ev := Generate(Football(), 5000, 11)
	d := Disorder{Fraction: 0.25, MaxDelay: 700, Seed: 13}
	items := Prepare(Watermarker{Period: 500, Lag: d.MaxDelay + 1}, Apply(d, ev))

	// Contract: after a watermark w, no event with Time <= w arrives.
	curWM := MinTime
	violations := 0
	for _, it := range items {
		if it.Kind == KindWatermark {
			if it.Watermark < curWM {
				t.Fatal("watermarks must be non-decreasing")
			}
			curWM = it.Watermark
			continue
		}
		if it.Event.Time <= curWM {
			violations++
		}
	}
	if violations > 0 {
		t.Fatalf("%d events arrived behind the watermark despite sufficient lag", violations)
	}
	if items[len(items)-1].Kind != KindWatermark || items[len(items)-1].Watermark != MaxTime {
		t.Fatal("prepared stream must end with a closing watermark")
	}
	if got := len(EventsOnly(items)); got != len(ev) {
		t.Fatalf("EventsOnly lost events: %d want %d", got, len(ev))
	}
}

func TestBeforeIsTotalOrder(t *testing.T) {
	f := func(t1, t2, s1, s2 int16) bool {
		a := Event[int]{Time: int64(t1), Seq: int64(s1)}
		b := Event[int]{Time: int64(t2), Seq: int64(s2)}
		switch {
		case a.Time == b.Time && a.Seq == b.Seq:
			return !a.Before(b) && !b.Before(a)
		default:
			return a.Before(b) != b.Before(a)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareEpochTimestampsNoWatermarkFlood is the regression test for the
// watermark-alignment fix: with epoch-millisecond timestamps (~1.7e12) the
// old zero-aligned Prepare emitted ~1.7 billion catch-up watermarks before
// the first event. Aligned emission must stay O(events) and fast.
func TestPrepareEpochTimestampsNoWatermarkFlood(t *testing.T) {
	const epoch = int64(1_700_000_000_000) // 2023-11-14 in epoch ms
	const n = 10_000
	ev := make([]Event[float64], n)
	for i := range ev {
		ev[i] = Event[float64]{Time: epoch + int64(i*3), Seq: int64(i), Value: 1}
	}
	w := Watermarker{Period: 1000, Lag: 100}
	items := Prepare(w, ev)

	// O(events): event-time span is ~30s, so at most ~30 periodic watermarks
	// plus the closing MaxTime one — nowhere near the 1.7e9 of the flood.
	if wms := len(items) - n; wms < 2 || wms > 64 {
		t.Fatalf("prepared stream has %d watermarks for a 30s span, want a handful", wms)
	}
	// Alignment: the first watermark sits on the first Period boundary after
	// firstTS-Lag, and every watermark is covered by the stream's maximum
	// timestamp minus Lag (Prepare emits a watermark just before the event
	// that unlocked it, so the running max lags by one event).
	globalMax := MinTime
	for _, e := range ev {
		if e.Time > globalMax {
			globalMax = e.Time
		}
	}
	first := true
	for _, it := range items {
		if it.Kind == KindEvent {
			continue
		}
		if it.Watermark == MaxTime {
			continue
		}
		if first {
			wantFirst := w.firstBoundary(epoch)
			if it.Watermark != wantFirst {
				t.Fatalf("first watermark %d, want %d", it.Watermark, wantFirst)
			}
			first = false
		}
		if it.Watermark%w.Period != 0 {
			t.Errorf("watermark %d not on a Period boundary", it.Watermark)
		}
		if it.Watermark > globalMax-w.Lag {
			t.Errorf("watermark %d ahead of max-Lag = %d", it.Watermark, globalMax-w.Lag)
		}
	}
	if first {
		t.Fatal("no periodic watermarks emitted at all")
	}
}

// TestPrepareSmallTimestampsUnchanged pins the historical sequence for
// streams that start near time zero: the alignment clamp keeps the first
// boundary at Period, so the golden benchmark streams are byte-identical.
func TestPrepareSmallTimestampsUnchanged(t *testing.T) {
	ev := []Event[float64]{
		{Time: 1, Seq: 0}, {Time: 900, Seq: 1}, {Time: 1600, Seq: 2},
		{Time: 2400, Seq: 3}, {Time: 3100, Seq: 4},
	}
	items := Prepare(Watermarker{Period: 1000, Lag: 100}, ev)
	var wms []int64
	for _, it := range items {
		if it.Kind == KindWatermark && it.Watermark != MaxTime {
			wms = append(wms, it.Watermark)
		}
	}
	want := []int64{1000, 2000, 3000}
	if len(wms) != len(want) {
		t.Fatalf("watermarks %v, want %v", wms, want)
	}
	for i := range want {
		if wms[i] != want[i] {
			t.Fatalf("watermarks %v, want %v", wms, want)
		}
	}
	// Negative timestamps must not panic or misalign (floor division).
	neg := Prepare(Watermarker{Period: 1000, Lag: 100}, []Event[float64]{
		{Time: -5000, Seq: 0}, {Time: 2500, Seq: 1},
	})
	for _, it := range neg {
		if it.Kind == KindWatermark && it.Watermark != MaxTime && it.Watermark < 1000 {
			t.Fatalf("clamp violated: watermark %d below Period", it.Watermark)
		}
	}
}

// oldFeeder is Feeder as it was before Newest/Advance/Due: one call per event,
// the schedule aligned by the first event and then checked after every one.
// It is the reference the primitives are held to.
type oldFeeder struct {
	w             Watermarker
	maxTS, nextWM int64
}

func (f *oldFeeder) feed(items []Item[int], e Event[int]) []Item[int] {
	if f.nextWM == 0 && f.w.Period > 0 {
		f.nextWM = f.w.firstBoundary(e.Time)
	}
	if e.Time > f.maxTS {
		f.maxTS = e.Time
	}
	for f.w.Period > 0 && f.maxTS-f.w.Lag >= f.nextWM {
		items = append(items, WatermarkItem[int](f.nextWM))
		f.nextWM += f.w.Period
	}
	return append(items, EventItem(e))
}

// TestFeederPrimitivesMatchOldFeed: Feed rebuilt on the primitives, and a
// source driving the primitives itself the way scotty's scanner does (one
// comparison per event, watermarks popped only when Advance says so), both
// produce the old Feed loop's item sequence exactly — on in-order, disordered,
// negative and epoch-scale timestamps, with gaps that make several watermarks
// due at once, and with watermarks off.
func TestFeederPrimitivesMatchOldFeed(t *testing.T) {
	watermarks := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := []int64{0, -50_000, 1_700_000_000_000, -1_700_000_000_000}[seed%4]
		w := Watermarker{Period: []int64{1000, 250, 7, 0}[rng.Intn(4)], Lag: int64(rng.Intn(3000))}
		ev := make([]Event[int], 1+rng.Intn(500))
		ts := base + int64(rng.Intn(5000))
		for i := range ev {
			if rng.Intn(50) == 0 {
				ts += int64(rng.Intn(20_000)) // a gap: several watermarks at once
			} else {
				ts += int64(rng.Intn(40))
			}
			ev[i] = Event[int]{Time: ts, Seq: int64(i), Value: i}
		}
		if seed%3 != 0 {
			ev = Apply(Disorder{Fraction: 0.3, MaxDelay: int64(1 + rng.Intn(4000)), Seed: seed}, ev)
		}

		old := &oldFeeder{w: w, maxTS: MinTime}
		var want []Item[int]
		for _, e := range ev {
			want = old.feed(want, e)
		}
		var viaFeed []Item[int]
		f := NewFeeder[int](w)
		for _, e := range ev {
			viaFeed = f.Feed(viaFeed, e)
		}
		var direct []Item[int]
		g := NewFeeder[int](w)
		for _, e := range ev {
			if e.Time > g.Newest() && g.Advance(e.Time) {
				for wm, ok := g.Due(); ok; wm, ok = g.Due() {
					direct = append(direct, WatermarkItem[int](wm))
				}
			}
			direct = append(direct, EventItem(e))
		}
		for name, got := range map[string][]Item[int]{"Feed": viaFeed, "primitives": direct} {
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %+v: %s diverged from the old Feed loop\n got %v\nwant %v", seed, w, name, got, want)
			}
		}
		watermarks += len(want) - len(ev)
	}
	if watermarks < 10_000 {
		t.Fatalf("only %d watermarks in 200 streams: the schedule went untested", watermarks)
	}
}

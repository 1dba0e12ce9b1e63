package fleet

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// concat is associative and NOT commutative: a window's value lists its
// tuples, and any fold that visits panes out of stream order shows.
type concat struct{}

func (concat) Lift(e stream.Event[stream.Tuple]) string { return strconv.Itoa(int(e.Value.V)) + "," }
func (concat) Combine(a, b string) string               { return a + b }
func (concat) Lower(a string) string                    { return a }
func (concat) Identity() string                         { return "" }
func (concat) Props() aggregate.Props {
	return aggregate.Props{Name: "concat", Kind: aggregate.Holistic}
}

// replay drives a fleet one call at a time, the way Process* does, and beside
// every emission pass runs the emission loop this package had before emitDue:
// member by member, window by window, an independent tree.Query per window.
// The pass must produce that loop's results in that loop's order.
type replay[A any, Out comparable] struct {
	t    *testing.T
	fl   *Fleet[stream.Tuple, A, Out]
	want []core.Result[Out]

	// Counted over the reference loop: the windows it emitted, what direct
	// emissions of them would have folded, and the ring combines its
	// per-window queries cost. lone and shared count the window ends of
	// completion passes that one member had to itself and that several shared.
	windows, direct, refCombines int64
	lone, shared, updates        int
}

func newReplay[A any, Out comparable](t *testing.T, f aggregate.Function[stream.Tuple, A, Out], lateness int64, qs []ls) *replay[A, Out] {
	r := &replay[A, Out]{t: t, fl: New(f, Options{Options: core.Options{Lateness: lateness}})}
	for _, q := range qs {
		r.fl.MustAddQuery(window.Sliding(stream.Time, q.length, q.slide))
	}
	r.fl.Plan()
	for _, g := range r.fl.groups {
		g, tap := g, r.fl.tapFor(g)
		r.fl.ag.SetPartialTap(g.physID, func(s, e int64, a A, n int64, update bool) {
			if i := s/g.factor - g.base; update && g.base >= 0 && i >= 0 && i < int64(g.tree.Len()) {
				r.updates++
			}
			tap(s, e, a, n, update)
		})
	}
	return r
}

// refWindow is the parent's emitFactored + paneRange.
func (r *replay[A, Out]) refWindow(g *group[A], sp *spec[A], s, e int64, update bool) {
	p := pane[A]{a: r.fl.f.Identity()}
	if g.base >= 0 {
		lo, hi := max(s/g.factor-g.base, 0), min(e/g.factor-g.base, int64(g.tree.Len()))
		if lo < hi {
			c0 := g.tree.Combines()
			p = g.tree.Query(int(lo), int(hi))
			r.refCombines += g.tree.Combines() - c0
		}
	}
	r.windows++
	r.direct += sp.directFold
	for _, sb := range sp.subs {
		if e >= sb.floor {
			r.want = append(r.want, core.Result[Out]{Query: sb.id, Measure: stream.Time,
				Start: s, End: e, Value: r.fl.f.Lower(p.a), N: p.n, Update: update})
		}
	}
}

// refDrain is the parent's drain loop, on copies of the cursors.
func (r *replay[A, Out]) refDrain(wm, maxSeen int64) {
	for _, g := range r.fl.groups {
		members := make(map[int64]int)
		for _, sp := range g.specs {
			if sp.mode != modeFactored {
				continue
			}
			hi := min(wm, maxSeen+sp.length)
			for e := sp.nextEnd(); e-1 <= hi; e += sp.slide {
				r.refWindow(g, sp, e-sp.length, e, false)
				members[e]++
			}
		}
		for _, n := range members {
			if n == 1 {
				r.lone++
			} else {
				r.shared++
			}
		}
	}
}

// refReEmit is the per-tuple loop, candidate by candidate, over every pane
// the call's update flushes rewrote: each window that covers one of them and
// was announced, once, per member in ascending order.
func (r *replay[A, Out]) refReEmit() {
	for _, g := range r.fl.groups {
		for _, sp := range g.specs {
			if sp.mode != modeFactored {
				continue
			}
			starts := map[int64]bool{}
			for _, p := range g.dirty {
				ps, pe := p*g.factor, (p+1)*g.factor
				for k := ps / sp.slide; k >= 0; k-- {
					s := k * sp.slide
					e := s + sp.length
					if e < pe {
						break
					}
					if e < sp.nextEnd() && e >= sp.minNextEnd {
						starts[s] = true
					}
				}
			}
			sorted := make([]int64, 0, len(starts))
			for s := range starts {
				sorted = append(sorted, s)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, s := range sorted {
				r.refWindow(g, sp, s, s+sp.length, true)
			}
		}
	}
}

func (r *replay[A, Out]) check(pass string, got []core.Result[Out]) {
	r.t.Helper()
	if len(got) != len(r.want) {
		r.t.Fatalf("%s: %d results, the per-window loop has %d", pass, len(got), len(r.want))
	}
	for i := range got {
		if got[i] != r.want[i] {
			r.t.Fatalf("%s: result %d = %+v, the per-window loop has %+v", pass, i, got[i], r.want[i])
		}
	}
	r.want = r.want[:0]
}

// call is ProcessElement / ProcessWatermark with the reference re-emission
// and drain slipped in between the core call, reEmit and the pump. The results
// stay valid until the next call.
func (r *replay[A, Out]) call(process func() []core.Result[Out]) []core.Result[Out] {
	fl := r.fl
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(process())
	late := len(fl.results)
	r.refReEmit()
	fl.reEmit()
	r.check("late panes", fl.results[late:])
	if fl.nDraining > 0 {
		fl.checkFlips()
	}
	mark := len(fl.results)
	if fl.ag.Watermark() != fl.pumped { // only a call that moved the watermark drains
		r.refDrain(fl.ag.Watermark(), fl.ag.View().MaxSeenTime())
	}
	fl.pump()
	r.check("drain", fl.results[mark:])
	return fl.results
}

func (r *replay[A, Out]) element(e stream.Event[stream.Tuple]) []core.Result[Out] {
	return r.call(func() []core.Result[Out] { return r.fl.ag.ProcessElement(e) })
}

func (r *replay[A, Out]) watermark(wm int64) []core.Result[Out] {
	return r.call(func() []core.Result[Out] { return r.fl.ag.ProcessWatermark(wm) })
}

// spent is what the fleet's emission passes combined so far, ring and chain:
// the counter holds direct folds minus combines spent, and no pass of these
// tests spends more than a direct emission would.
func (r *replay[A, Out]) spent() int64 { return r.direct - r.fl.Plan().TouchesSaved }

// disordered is n tuples 37 ms apart, a fifth of them arriving up to maxDelay
// late; values number the tuples in event-time order.
func disordered(n int, maxDelay, seed int64) []stream.Event[stream.Tuple] {
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i) * 37, Seq: int64(i), Value: stream.Tuple{V: float64(i)}}
	}
	return stream.Apply(stream.Disorder{Fraction: 0.2, MaxDelay: maxDelay, Seed: seed}, ev)
}

// run feeds events with a watermark one second behind the newest event every
// half second of event time, and a closing MaxTime watermark that flushes the
// last late tuples' updates, handing every call's results to each.
func (r *replay[A, Out]) run(events []stream.Event[stream.Tuple], each func([]core.Result[Out])) {
	nextWM := int64(500)
	for _, e := range events {
		each(r.element(e))
		for ; e.Time >= nextWM; nextWM += 500 {
			each(r.watermark(nextWM - 1000))
		}
	}
	each(r.watermark(stream.MaxTime))
}

// randomGroup is 2–13 overlapping sliding windows on a common granularity, in
// no particular order: lengths and slides mixed, so that some window ends are
// shared by many members and others belong to one.
func randomGroup(rng *rand.Rand) []ls {
	f := []int64{100, 250, 1000}[rng.Intn(3)]
	qs := make([]ls, 2+rng.Intn(12))
	for i := range qs {
		qs[i] = ls{length: f * int64(8+rng.Intn(40)), slide: f * int64(1+rng.Intn(4))}
	}
	return qs
}

func chainEqualsPerWindowQuery[A any, Out comparable](t *testing.T, f aggregate.Function[stream.Tuple, A, Out], verify func(events []stream.Event[stream.Tuple], r core.Result[Out])) {
	var lone, shared, updates, evicted, unsorted int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newReplay(t, f, 2500, randomGroup(rng))
		for _, g := range r.fl.groups {
			if !sort.SliceIsSorted(g.specs, func(i, j int) bool { return g.specs[i].length < g.specs[j].length }) {
				unsorted++
			}
		}
		events := disordered(1500, 3000, seed)
		final := make(map[[3]int64]core.Result[Out])
		r.run(events, func(rs []core.Result[Out]) {
			for _, res := range rs {
				final[[3]int64{int64(res.Query), res.Start, res.End}] = res
			}
		})
		for _, res := range final {
			verify(events, res)
		}
		for _, g := range r.fl.groups {
			evicted += int(g.base)
		}
		lone, shared, updates = lone+r.lone, shared+r.shared, updates+r.updates
	}
	if lone == 0 || shared == 0 || updates == 0 || evicted == 0 || unsorted == 0 {
		t.Fatalf("the random groups left a case out: %d window ends with one member, %d shared, %d late panes, %d panes evicted, %d groups registered out of length order",
			lone, shared, updates, evicted, unsorted)
	}
	t.Logf("%d window ends with one member, %d shared, %d late panes, %d panes evicted", lone, shared, updates, evicted)
}

// TestChainEqualsPerWindowQuery: emitDue's left-extending chains produce the
// results of one independent ring query per window, in the parent's emission
// order, over random factor groups with late panes and evictions between
// passes — under max, and under a non-commutative aggregate whose final window
// values are also held against the tuples themselves.
func TestChainEqualsPerWindowQuery(t *testing.T) {
	t.Run("max", func(t *testing.T) {
		chainEqualsPerWindowQuery(t, aggregate.Max(stream.Val), func([]stream.Event[stream.Tuple], core.Result[float64]) {})
	})
	t.Run("concat", func(t *testing.T) {
		chainEqualsPerWindowQuery[string, string](t, concat{}, func(events []stream.Event[stream.Tuple], r core.Result[string]) {
			// Values number the tuples in event-time order, 37 ms apart.
			var want strings.Builder
			for i := (r.Start + 36) / 37; i*37 < r.End && i < int64(len(events)); i++ {
				want.WriteString(strconv.Itoa(int(i)) + ",")
			}
			if r.Value != want.String() {
				t.Fatalf("query %d [%d, %d) = %q, its tuples in stream order are %q", r.Query, r.Start, r.End, r.Value, want.String())
			}
		})
	})
}

// TestFleet64CombinesPerWindow counts, without a clock, what an emitted
// factored window costs in ring and chain combines on the csv-ooo-fleet64
// shape — the parent's per-window queries cost about six — and that a spec
// with nobody to chain to pays what its own range query costs.
func TestFleet64CombinesPerWindow(t *testing.T) {
	r := newReplay(t, aggregate.Max(stream.Val), 2000, fleet64Shape(64))
	r.run(disordered(6000, 3000, 1), func([]core.Result[float64]) {})
	if p := r.fl.Plan(); p.Factored != 62 || p.RewriteHits != r.windows || r.updates == 0 {
		t.Fatalf("plan %+v, %d reference windows, %d late panes", p, r.windows, r.updates)
	}
	perWindow, parent := float64(r.spent())/float64(r.windows), float64(r.refCombines)/float64(r.windows)
	t.Logf("fleet64: %.2f combines per emitted window, one query per window costs %.2f", perWindow, parent)
	if perWindow > 2 || parent < 2*perWindow {
		t.Errorf("fleet64: %.2f combines per emitted window (want <= 2), one query per window costs %.2f", perWindow, parent)
	}

	lone := newReplay(t, aggregate.Max(stream.Val), 2000, []ls{{64000, 1000}})
	lone.run(disordered(6000, 3000, 2), func([]core.Result[float64]) {})
	if p := lone.fl.Plan(); p.Factored != 1 || lone.windows == 0 {
		t.Fatalf("lone spec: plan %+v, %d windows", p, lone.windows)
	}
	t.Logf("lone 64 s window: %d combines for %d windows, one query per window costs %d", lone.spent(), lone.windows, lone.refCombines)
	if lone.spent() > lone.refCombines+lone.windows {
		t.Errorf("lone 64 s window: %d combines for %d windows, one query per window costs %d", lone.spent(), lone.windows, lone.refCombines)
	}
}

// TestEmissionDoesNotAllocate: in steady state neither a watermark that
// completes a window of every member nor a late tuple whose watermark
// re-emits several windows of every member allocates in the fleet.
func TestEmissionDoesNotAllocate(t *testing.T) {
	fl := New(aggregate.Max(stream.Val), Options{Options: core.Options{Lateness: 2000}})
	register(fl, fleet64Shape(64))
	now := int64(0)
	second := func() { // twenty tuples and the watermark behind them
		for i := 0; i < 20; i++ {
			fl.ProcessElement(stream.Event[stream.Tuple]{Time: now, Value: stream.Tuple{V: float64(now % 997)}})
			now += 50
		}
		if rs := fl.ProcessWatermark(now - 1000); len(rs) < 60 && now > 100_000 {
			t.Fatalf("watermark %d released %d results", now-1000, len(rs))
		}
	}
	for now < 200_000 {
		second()
	}
	bump := int64(0)
	late := func() { // a late tuple and a watermark 1 ms on, which completes nothing
		if rs := fl.ProcessElement(stream.Event[stream.Tuple]{Time: now - 2525, Value: stream.Tuple{V: math.MaxInt32}}); len(rs) != 0 {
			t.Fatalf("a tuple 1.5 s behind the watermark released %d results before the next watermark", len(rs))
		}
		bump++
		if rs := fl.ProcessWatermark(now - 1000 + bump); len(rs) < 120 || !rs[0].Update {
			t.Fatalf("the watermark after a tuple 1.5 s behind it released %d results", len(rs))
		}
	}
	late()
	if n := testing.AllocsPerRun(100, second); n != 0 {
		t.Errorf("a steady-state watermark allocates %.0f objects", n)
	}
	if n := testing.AllocsPerRun(100, late); n != 0 {
		t.Errorf("a late tuple allocates %.0f objects", n)
	}
}

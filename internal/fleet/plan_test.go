package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"scotty/internal/core"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fleet64Shape is the csv-ooo-fleet64 query shape at any size: sliding
// windows i·1000 long, all sliding by 1000 — one gcd.
func fleet64Shape(n int) []ls {
	qs := make([]ls, n)
	for i := range qs {
		qs[i] = ls{int64(i+1) * 1000, 1000}
	}
	return qs
}

// mixedShape spreads n distinct specs over ten slides — ten distinct gcds,
// several of them dividing one another.
func mixedShape(n int) []ls {
	slides := []int64{250, 500, 750, 1000, 1500, 2000, 2500, 3000, 4000, 6000}
	qs := make([]ls, n)
	for i := range qs {
		s := slides[i%len(slides)]
		qs[i] = ls{s * int64(2+i/len(slides)), s}
	}
	return qs
}

func register(fl *Fleet[stream.Tuple, float64, float64], qs []ls) []int {
	ids := make([]int, len(qs))
	for i, q := range qs {
		ids[i] = fl.MustAddQuery(window.Sliding(stream.Time, q.length, q.slide))
	}
	return ids
}

// BenchmarkPlan registers n distinct sliding specs on a virgin fleet and
// plans them — what `scotty -windows` does before its first tuple.
func BenchmarkPlan(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		qs := fleet64Shape(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fl := newSumFleet(Options{})
				register(fl, qs)
				if p := fl.Plan(); p.Specs != n {
					b.Fatalf("plan: %+v", p)
				}
			}
		})
	}
}

// planEvalsFor plans qs on a virgin fleet and returns the trial merges the
// planner priced.
func planEvalsFor(t *testing.T, qs []ls) int {
	t.Helper()
	fl := newSumFleet(Options{})
	register(fl, qs)
	if p := fl.Plan(); p.Specs != len(qs) {
		t.Fatalf("%d specs registered, plan has %+v", len(qs), p)
	}
	if runs := fl.Registry().Counter("fleet_plan_runs_total").Value(); runs != 1 {
		t.Fatalf("a burst of %d registrations planned %d times, want once", len(qs), runs)
	}
	return fl.planEvals
}

// TestPlanWorkIsSubQuadratic is the planner's scaling gate, and it reads no
// clock: the trial merges priced for 4096 distinct specs are within 16× of
// what 256 specs cost scaled by 4096/256 — n·polylog, where the all-pairs
// agglomeration this replaced priced ~n³ per plan — on the csv-ooo-fleet64
// shape (one gcd) and on a mixed-slide shape (ten gcds on a divisor lattice).
func TestPlanWorkIsSubQuadratic(t *testing.T) {
	small, large := 256, 4096
	if testing.Short() {
		small, large = 64, 1024 // the race leg: the same ratio at a quarter of the registrations
	}
	for name, shape := range map[string]func(int) []ls{"fleet64": fleet64Shape, "mixed": mixedShape} {
		gcds := make(map[int64]bool)
		for _, sp := range planSpecs(shape(large)) {
			gcds[sp.own] = true
		}
		if name == "mixed" && len(gcds) < 8 {
			t.Fatalf("mixed shape has %d distinct gcds, want >= 8", len(gcds))
		}
		lo, hi := planEvalsFor(t, shape(small)), planEvalsFor(t, shape(large))
		if bound := 16 * lo * (large / small); hi > bound || lo == 0 {
			t.Errorf("%s (%d gcds): %d trial merges for %d specs, %d for %d — above the n·polylog bound %d",
				name, len(gcds), lo, small, hi, large, bound)
		}
		t.Logf("%s (%d gcds): %d trial merges for %d specs, %d for %d", name, len(gcds), lo, small, hi, large)
	}
}

// TestReplanAllocatesPerCluster: planning an unchanged spec set again
// allocates the bucket map, one cluster per gcd and their member lists — not
// a trial cluster per pair. Sixteen times the specs on the same gcds may only
// add the doublings of the member lists.
func TestReplanAllocatesPerCluster(t *testing.T) {
	allocs := func(qs []ls) float64 {
		fl := newSumFleet(Options{})
		register(fl, qs)
		fl.Plan()
		return testing.AllocsPerRun(20, fl.plan)
	}
	a64, a1024 := allocs(fleet64Shape(64)), allocs(fleet64Shape(1024))
	m64, m1024 := allocs(mixedShape(64)), allocs(mixedShape(1024))
	t.Logf("allocations per re-plan: fleet64 shape %.0f (64 specs) %.0f (1024); mixed shape %.0f, %.0f", a64, a1024, m64, m1024)
	if a64 > 24 || a1024 > a64+8 {
		t.Errorf("one-gcd re-plan allocates %.0f objects for 64 specs and %.0f for 1024, want <= 24 and <= +8", a64, a1024)
	}
	if m64 > 10*8 || m1024 > m64+10*8 {
		t.Errorf("ten-gcd re-plan allocates %.0f objects for 64 specs and %.0f for 1024, want <= 8 per gcd", m64, m1024)
	}
}

// TestChurnReleasesEverything registers a large distinct fleet and removes
// all of it, in registration order and in reverse: the plan ends empty, the
// core holds no physical query, and the whole churn — 2n registration
// changes — is planned in n·polylog trial merges.
func TestChurnReleasesEverything(t *testing.T) {
	n := 4096
	if testing.Short() {
		n = 512
	}
	for _, reverse := range []bool{false, true} {
		fl := newSumFleet(Options{})
		ids := register(fl, mixedShape(n))
		if p := fl.Plan(); p.Specs != n || p.Factored == 0 {
			t.Fatalf("setup: %+v", p)
		}
		registered := fl.planEvals
		for i := range ids {
			if reverse {
				i = len(ids) - 1 - i
			}
			fl.RemoveQuery(ids[i])
			if i == n/2 {
				// One plan over the half-removed fleet, tombstones and all.
				if p := fl.Plan(); p.Specs != n/2 && p.Specs != n-n/2-1 {
					t.Fatalf("reverse=%v: half-way plan: %+v", reverse, p)
				}
			}
		}
		p := fl.Plan()
		if p.Logical != 0 || p.Physical != 0 || p.Specs != 0 || p.Factored != 0 || len(p.Factors) != 0 {
			t.Fatalf("reverse=%v: plan after removing everything: %+v", reverse, p)
		}
		if len(fl.specs)+len(fl.groups)+len(fl.byCanon)+len(fl.byPhys)+len(fl.byFactor)+len(fl.logical) != 0 {
			t.Fatalf("reverse=%v: fleet still indexes released state", reverse)
		}
		// Physical ids are handed out in ascending order; none may be left.
		for id := 0; id < 3*n; id++ {
			if fl.ag.SetPartialTap(id, nil) {
				t.Fatalf("reverse=%v: core still holds physical query %d", reverse, id)
			}
		}
		if bound := 16 * registered; fl.planEvals > bound {
			t.Errorf("reverse=%v: churn priced %d trial merges, registration alone %d", reverse, fl.planEvals, registered)
		}
	}
}

// TestPlanMetrics: planning is counted and timed on the registry, and the
// line `scotty -windows` prints ends in the time spent planning.
func TestPlanMetrics(t *testing.T) {
	fl := newSumFleet(Options{})
	register(fl, fleet64Shape(64))
	r := fl.Registry()
	if runs := r.Counter("fleet_plan_runs_total").Value(); runs != 0 {
		t.Fatalf("planned %d times before anything asked for the plan", runs)
	}
	line := fl.String()
	if want := "fleet(logical=64 physical=3 specs=64 factored=62 groups=1 plan="; !strings.HasPrefix(line, want) {
		t.Fatalf("String() = %q, want prefix %q", line, want)
	}
	if _, err := time.ParseDuration(strings.TrimSuffix(line[strings.LastIndex(line, "=")+1:], ")")); err != nil {
		t.Fatalf("String() = %q does not end in a duration: %v", line, err)
	}
	feed(fl, 100, 50)
	if runs, ns := r.Counter("fleet_plan_runs_total").Value(), r.Counter("fleet_plan_ns_total").Value(); runs != 1 || ns <= 0 {
		t.Fatalf("fleet_plan_runs_total = %d, fleet_plan_ns_total = %d, want one timed run", runs, ns)
	}
	fl.RemoveQuery(0)
	fl.RemoveQuery(1)
	fl.Plan()
	if runs := r.Counter("fleet_plan_runs_total").Value(); runs != 2 {
		t.Fatalf("a burst of two removals brought fleet_plan_runs_total to %d, want 2", runs)
	}
}

// TestModelPredictsTouchesSaved holds the emission cost against the counter
// that measures it. On the csv-ooo-fleet64 shape over an in-order stream every
// factored member has a window at every window end, so emission is one chain
// per end (emitDue): the shortest member folds its own length/f panes from the
// ring — log2(panes)+1 nodes by the planner's pricing — and every longer one
// extends the member before it by the panes between their starts, a plain
// read when that is one pane, plus one Combine. A direct emission folds
// length/g slices; the fleet counts what ring and chain really combined and
// adds the difference to slice_touches_saved_total. The two must agree within
// 5% (0.02% when this was written). plan.go still prices every factored
// emission at log2(length/f)+1, which for members that end together is an
// upper bound (docs/SHARING.md "Emission").
func TestModelPredictsTouchesSaved(t *testing.T) {
	fl := newSumFleet(Options{})
	ids := register(fl, fleet64Shape(64))
	emissions := make(map[int]int)
	count := func(rs []core.Result[float64]) {
		for _, r := range rs {
			if !r.Update {
				emissions[r.Query]++
			}
		}
	}
	const tuples, dt = 20_000, 50
	for i := 0; i < tuples; i++ {
		count(fl.ProcessElement(stream.Event[stream.Tuple]{Time: int64(i) * dt, Value: stream.Tuple{V: 1}}))
		if i%20 == 19 {
			count(fl.ProcessWatermark(int64(i) * dt))
		}
	}
	ringFold := func(panes int64) float64 {
		if panes == 1 {
			return 0
		}
		return math.Log2(float64(panes)) + 1
	}
	var predicted float64
	factored, shorter := 0, int64(0)
	for _, id := range ids { // registered in ascending length: chain order
		sp := fl.logical[id]
		if sp.mode != modeFactored {
			continue
		}
		factored++
		cost := ringFold((sp.length - shorter) / sp.grp.factor)
		if shorter > 0 {
			cost++ // the chain's own Combine
		}
		shorter = sp.length
		predicted += (float64(sp.directFold) - cost) * float64(emissions[id])
	}
	observed := float64(fl.Plan().TouchesSaved)
	if factored != 62 || predicted <= 0 {
		t.Fatalf("%d specs factored, predicted saving %.0f", factored, predicted)
	}
	if ratio := observed / predicted; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("slice_touches_saved_total = %.0f, the model predicts %.0f (ratio %.3f, want within 5%%)", observed, predicted, ratio)
	} else {
		t.Logf("slice_touches_saved_total = %.0f, the model predicts %.0f (ratio %.3f)", observed, predicted, ratio)
	}
}

package experiments

import (
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/stream"
)

// rounds is how often each timed series of TestPaperShapes runs; a series
// reads its best run.
const rounds = 3

// bestOf runs every series rounds times, taking turns so that a slow stretch
// of the machine hits all of them, and returns each one's highest throughput.
func bestOf(t *testing.T, series ...func() (float64, error)) []float64 {
	t.Helper()
	best := make([]float64, len(series))
	for r := 0; r < rounds; r++ {
		for i, run := range series {
			tps, err := run()
			if err != nil {
				t.Fatal(err)
			}
			best[i] = max(best[i], tps)
		}
	}
	return best
}

// atLeast fails unless a >= factor × b, naming both series.
func atLeast(t *testing.T, what string, a, b, factor float64) {
	t.Helper()
	t.Logf("%s: %.2fx (want >= %gx)", what, a/b, factor)
	if a < factor*b {
		t.Errorf("%s: %.3g vs %.3g tuples/s is %.2fx, want >= %gx", what, a, b, a/b, factor)
	}
}

// TestPaperShapes asserts the relative claims EXPERIMENTS.md reproduces —
// who wins, by roughly what factor, where curves bend — on the same per-point
// functions the figures print from, at quick scale. Every timing inequality
// compares series measured back to back in this test, with at least a 2x
// margin below the worst ratio observed when it was written; the memory and
// plan shapes are deterministic.
func TestPaperShapes(t *testing.T) {
	sc := Quick()

	t.Run("table1", func(t *testing.T) {
		for _, r := range table1Rows(sc.MemTuples) {
			ratio := float64(r.measured) / float64(r.formula)
			if ratio < 0.5 || ratio > 4 {
				t.Errorf("%s: measured %d B is %.2fx the formula's %d B, want within [0.5, 4]", r.name, r.measured, ratio, r.formula)
			}
		}
	})

	t.Run("fig10", func(t *testing.T) {
		// At 500 slices, lazy slicing's state follows the slices, not the
		// tuples; the tuple buffer's follows the tuples.
		first, last := fig10Tuples[0], fig10Tuples[len(fig10Tuples)-1]
		lo, hi := int64(-1), int64(0)
		for _, n := range fig10Tuples {
			b := stateBytes(benchutil.LazySlicing, stream.Time, n, 500)
			if lo < 0 || b < lo {
				lo = b
			}
			hi = max(hi, b)
		}
		if float64(hi) > 1.5*float64(lo) {
			t.Errorf("lazy slicing at 500 slices spans %d..%d B over %d..%d tuples, want within 1.5x", lo, hi, first, last)
		}
		tb0 := stateBytes(benchutil.TupleBuffer, stream.Time, first, 500)
		tb1 := stateBytes(benchutil.TupleBuffer, stream.Time, last, 500)
		if tb1 < 10*tb0 {
			t.Errorf("tuple buffer grew %d -> %d B over %d..%d tuples, want >= 10x", tb0, tb1, first, last)
		}
	})

	t.Run("fig8", func(t *testing.T) {
		const n = 100
		point := func(tech benchutil.Technique) func() (float64, error) {
			return func() (float64, error) { return fig8Point(tech, n, sc.events(tech, n)) }
		}
		tps := bestOf(t, point(benchutil.LazySlicing), point(benchutil.Buckets), point(benchutil.TupleBuffer))
		atLeast(t, "fig 8, 100 windows: lazy slicing / buckets", tps[0], tps[1], 5)
		atLeast(t, "fig 8, 100 windows: lazy slicing / tuple buffer", tps[0], tps[2], 2)
	})

	t.Run("fig9", func(t *testing.T) {
		const n = 20
		point := func(tech benchutil.Technique) func() (float64, error) {
			return func() (float64, error) { return fig9Point(stream.Football(), tech, n, sc.events(tech, n)) }
		}
		techs := []benchutil.Technique{benchutil.LazySlicing, benchutil.Buckets, benchutil.TupleBuffer, benchutil.AggTree}
		var series []func() (float64, error)
		for _, tech := range techs {
			series = append(series, point(tech))
		}
		tps := bestOf(t, series...)
		for i, tech := range techs[1:] {
			atLeast(t, "fig 9, football, 20 windows: lazy slicing / "+string(tech), tps[0], tps[i+1], 2)
		}
	})

	t.Run("fig12a", func(t *testing.T) {
		point := func(frac float64) func() (float64, error) {
			return func() (float64, error) {
				return fig12aPoint(benchutil.AggTree, frac, sc.SlowEvents)
			}
		}
		tps := bestOf(t, point(0), point(1))
		atLeast(t, "fig 12a: aggregate tree at 0% / 100% out of order", tps[0], tps[1], 10)
	})

	t.Run("fleet", func(t *testing.T) {
		in := fleetInput(sc.fleetEvents())
		for _, q := range fleetSweep {
			if _, plan := fleetShared(q, in); plan.Physical != 1 {
				t.Errorf("fleet of %d queries runs %d physical queries, want 1 (plan %+v)", q, plan.Physical, plan)
			}
		}
		const q = 1024
		tps := bestOf(t,
			func() (float64, error) { tps, _ := fleetShared(q, in); return tps, nil },
			func() (float64, error) { return fleetUnshared(q, in) },
			func() (float64, error) { tps, _ := fleetShared(1, in); return tps, nil },
			func() (float64, error) { tps, _ := fleetShared(4096, in); return tps, nil },
		)
		atLeast(t, "fleet, 1024 queries: shared / unshared", tps[0], tps[1], 4)
		growth := tps[2] / tps[3]
		t.Logf("fleet: shared per-tuple cost grows %.1fx from 1 to 4096 queries (want <= 100x)", growth)
		if growth > 100 {
			t.Errorf("fleet: shared per-tuple cost grows %.1fx from 1 to 4096 queries, want <= 100x", growth)
		}
	})

	t.Run("membound", func(t *testing.T) {
		var largest int
		var budget int64
		for _, k := range sc.membKeys() {
			un, bo, b, err := membPoint(k)
			if err != nil {
				t.Fatal(err)
			}
			largest, budget = k, b
			if bo.resident >= b {
				t.Errorf("%d keys: bounded run holds %d B, not under its %d B budget", k, bo.resident, b)
			}
			if bo.cold < 1 {
				t.Errorf("%d keys: the budget never forced a spill", k)
			}
			if bo.results != un.results {
				t.Errorf("%d keys: bounded run emitted %d results, unbounded %d", k, bo.results, un.results)
			}
		}
		tps := bestOf(t,
			func() (float64, error) { r, err := runMembound(largest, 0); return r.tps, err },
			func() (float64, error) { r, err := runMembound(largest, budget); return r.tps, err },
		)
		atLeast(t, "membound, largest cardinality: bounded / unbounded", tps[1], tps[0], 0.35)
	})
}

package experiments

import (
	"io"
	"math/rand"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/fat"
	"scotty/internal/rle"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Fig11 — §6.2.4: output latency of the aggregate stores, i.e. the time of
// the final aggregation step when a window ends, as a function of the number
// of stored entries (tuples or slices). Lazy stores fold on demand; eager
// stores answer from the aggregate tree; buckets return a precomputed value
// from a hash map. Measured for a distributive (sum, Fig 11a) and a holistic
// (median, Fig 11c) function.
func Fig11(w io.Writer, sc Scale) error {
	entrySweep := []int{100, 1000, 10_000}
	if sc.LatencyMax > 10_000 {
		entrySweep = append(entrySweep, sc.LatencyMax)
	}

	fig11For(w, sc, "Fig 11a — output latency, sum (ns)", entrySweep, aggregate.Sum(stream.Val),
		func(rng *rand.Rand) float64 { return float64(rng.Intn(1000)) })
	fig11For(w, sc, "Fig 11c — output latency, median (ns)", entrySweep, aggregate.Median(stream.Val),
		func(rng *rand.Rand) *rle.Multiset { return rle.Of(float64(rng.Intn(1000))) })
	return nil
}

func fig11For[A any](w io.Writer, sc Scale, title string, sweep []int, f aggregate.Function[stream.Tuple, A, float64], mk func(*rand.Rand) A) {
	tab := benchutil.NewTable(title,
		"entries", "lazy-slicing", "eager-slicing", "buckets", "tuple-buffer", "agg-tree")
	for _, entries := range sweep {
		rng := rand.New(rand.NewSource(5))
		// Per-entry partial aggregates shared by the store models.
		parts := make([]A, entries)
		for i := range parts {
			parts[i] = mk(rng)
		}
		rounds := 100
		if entries >= 10_000 {
			rounds = 10
		}

		// Lazy slicing / tuple buffer: fold all entries on demand. The
		// stores are identical at this level — one holds slice
		// aggregates, the other per-tuple partials — so the same
		// measurement serves both columns (the paper reports them on
		// top of each other in Fig 11a).
		var sink A
		lazy := benchutil.MeasureLatency(func() {
			a := f.Identity()
			for _, p := range parts {
				a = f.Combine(a, p)
			}
			sink = a
		}, 2, rounds)
		_ = sink

		// Eager slicing / aggregate tree: ordered range query on a
		// FlatFAT over the entries.
		tree := fat.New(f.Combine, f.Identity())
		for _, p := range parts {
			tree.Push(p)
		}
		eager := benchutil.MeasureLatency(func() {
			sink = tree.Query(entries/3, entries-1)
		}, 2, rounds*10)

		// Buckets: the final aggregate is precomputed per window; output
		// is a hash-map lookup plus lower.
		m := make(map[int64]A, entries)
		for i := 0; i < entries; i++ {
			m[int64(i)] = parts[i]
		}
		var out float64
		bucket := benchutil.MeasureLatency(func() {
			out = f.Lower(m[int64(entries/2)])
		}, 2, rounds*100)
		_ = out

		tab.Add(entries,
			float64(lazy.Nanoseconds()),
			float64(eager.Nanoseconds()),
			float64(bucket.Nanoseconds()),
			float64(lazy.Nanoseconds()),
			float64(eager.Nanoseconds()))
	}
	tab.Print(w)
}

// FigTailLatency — beyond the paper: per-tuple processing-latency quantiles
// under an eviction-heavy in-order sliding workload, sweeping the number of
// concurrent sliding windows. The three slice stores differ exactly in their tails: the lazy
// store folds O(window slices) at every emission, the FlatFAT eager store
// pays O(log s) per update plus occasional leaf-ring compactions, and the
// DABA ring answers each emission in a worst-case-constant number of
// combines. Two tables from the same runs: per-tuple p99 and p999.
func FigTailLatency(w io.Writer, sc Scale) error {
	techs := []benchutil.Technique{
		benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing,
	}
	cols := append([]string{"windows"}, techniqueNames(techs)...)
	p99 := benchutil.NewTable("Tail latency — eviction-heavy sliding windows, per-tuple p99 (ns)", cols...)
	p999 := benchutil.NewTable("Tail latency — eviction-heavy sliding windows, per-tuple p999 (ns)", cols...)
	for _, n := range sc.windowsSweep() {
		row99, row999 := []any{n}, []any{n}
		for _, t := range techs {
			op, err := benchutil.NewOp(t, benchutil.SumFn(), benchutil.Workload{
				Ordered: true,
				Defs:    func() []window.Definition { return benchutil.SlidingQueries(n) },
			})
			if err != nil {
				return err
			}
			q := benchutil.MeasureTail(op, benchutil.MakeInput(stream.Football(), sc.events(t, n), stream.Disorder{}, 42))
			row99, row999 = append(row99, q["p99"]), append(row999, q["p999"])
		}
		p99.Add(row99...)
		p999.Add(row999...)
	}
	p99.Print(w)
	p999.Print(w)
	return nil
}

// Fig15 — §6.3.3: the cost of the split operation — recomputing a slice
// aggregate from its stored tuples — as a function of the tuples per slice,
// for an algebraic (sum) and a holistic (median) function. Context-aware
// windows can estimate their throughput decay from this curve.
func Fig15(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 15 — processing time for recomputing slice aggregates (µs)",
		"tuples-per-slice", "sum", "median")
	sumF := aggregate.Sum(stream.Val)
	medF := aggregate.Median(stream.Val)
	for _, n := range []int{10, 100, 1000, 10_000, 100_000} {
		ev := evenEvents(n)
		rounds := 50
		if n >= 10_000 {
			rounds = 5
		}
		var s float64
		sum := benchutil.MeasureLatency(func() {
			s = sumF.Lower(aggregate.Recompute[stream.Tuple, float64, float64](sumF, ev))
		}, 1, rounds)
		_ = s
		med := benchutil.MeasureLatency(func() {
			s = medF.Lower(aggregate.Recompute[stream.Tuple, *rle.Multiset, float64](medF, ev))
		}, 1, rounds)
		tab.Add(n, float64(sum)/float64(time.Microsecond), float64(med)/float64(time.Microsecond))
	}
	tab.Print(w)
	return nil
}

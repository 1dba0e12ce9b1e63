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

// fig11Stores are the store models of Fig 11, each with how many times the
// lazy fold's rounds it is timed for (the faster the store, the more rounds
// it needs to rise above timer resolution).
var fig11Stores = []struct {
	name   string
	repeat int
}{{"lazy-fold", 1}, {"eager-tree-query", 10}, {"bucket-lookup", 100}}

// fig11Point returns the mean time (ns) of one final aggregation of store
// over entries partial aggregates drawn by mk, timed over rounds calls.
//
//   - lazy-fold: lazy slicing and the tuple buffer fold every entry on
//     demand. The stores are identical at this level — one holds slice
//     aggregates, the other per-tuple partials — so the same measurement
//     serves both (the paper reports them on top of each other in Fig 11a).
//   - eager-tree-query: eager slicing and the aggregate tree answer an
//     ordered range query on a FlatFAT over the entries.
//   - bucket-lookup: buckets precompute each window's aggregate; output is a
//     hash-map lookup plus lower.
func fig11Point[A any](f aggregate.Function[stream.Tuple, A, float64], mk func(*rand.Rand) A, store string, entries, rounds int) float64 {
	rng := rand.New(rand.NewSource(5))
	parts := make([]A, entries)
	for i := range parts {
		parts[i] = mk(rng)
	}
	var sink A
	var out float64
	var fn func()
	switch store {
	case "lazy-fold":
		fn = func() {
			a := f.Identity()
			for _, p := range parts {
				a = f.Combine(a, p)
			}
			sink = a
		}
	case "eager-tree-query":
		tree := fat.New(f.Combine, f.Identity())
		for _, p := range parts {
			tree.Push(p)
		}
		fn = func() { sink = tree.Query(entries/3, entries-1) }
	default: // bucket-lookup
		m := make(map[int64]A, entries)
		for i, p := range parts {
			m[int64(i)] = p
		}
		fn = func() { out = f.Lower(m[int64(entries/2)]) }
	}
	ns := float64(benchutil.MeasureLatency(fn, 2, rounds).Nanoseconds())
	_, _ = sink, out
	return ns
}

// fig11Sum and fig11Median are Fig 11a's and 11c's fig11Point.
func fig11Sum(store string, entries, rounds int) float64 {
	return fig11Point(aggregate.Sum(stream.Val), func(rng *rand.Rand) float64 { return float64(rng.Intn(1000)) }, store, entries, rounds)
}

func fig11Median(store string, entries, rounds int) float64 {
	return fig11Point(aggregate.Median(stream.Val), func(rng *rand.Rand) *rle.Multiset { return rle.Of(float64(rng.Intn(1000))) }, store, entries, rounds)
}

// Fig11 — §6.2.4: output latency of the aggregate stores, i.e. the time of
// the final aggregation step when a window ends, as a function of the number
// of stored entries (tuples or slices). Measured for a distributive (sum,
// Fig 11a) and a holistic (median, Fig 11c) function.
func Fig11(w io.Writer, sc Scale) error {
	entrySweep := []int{100, 1000, 10_000}
	if sc.LatencyMax > 10_000 {
		entrySweep = append(entrySweep, sc.LatencyMax)
	}
	for _, fig := range []struct {
		title string
		point func(store string, entries, rounds int) float64
	}{
		{"Fig 11a — output latency, sum (ns)", fig11Sum},
		{"Fig 11c — output latency, median (ns)", fig11Median},
	} {
		tab := benchutil.NewTable(fig.title,
			"entries", "lazy-slicing", "eager-slicing", "buckets", "tuple-buffer", "agg-tree")
		for _, entries := range entrySweep {
			rounds := 100
			if entries >= 10_000 {
				rounds = 10
			}
			var ns []float64
			for _, st := range fig11Stores {
				ns = append(ns, fig.point(st.name, entries, rounds*st.repeat))
			}
			lazy, eager, bucket := ns[0], ns[1], ns[2]
			tab.Add(entries, lazy, eager, bucket, lazy, eager)
		}
		tab.Print(w)
	}
	return nil
}

// tailPoint replays events in-order football tuples through technique t
// holding n sliding windows, timing every event, and returns the per-tuple
// latency quantiles (ns; see benchutil.MeasureTail).
func tailPoint(t benchutil.Technique, n, events int) (map[string]float64, error) {
	op, err := benchutil.NewOp(t, benchutil.SumFn(), benchutil.Workload{
		Ordered: true,
		Defs:    func() []window.Definition { return benchutil.SlidingQueries(n) },
	})
	if err != nil {
		return nil, err
	}
	return benchutil.MeasureTail(op, benchutil.MakeInput(stream.Football(), events, stream.Disorder{}, 42)), nil
}

// tailTechniques are the three slice stores FigTailLatency compares.
var tailTechniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing,
}

// FigTailLatency — beyond the paper: per-tuple processing-latency quantiles
// under an eviction-heavy in-order sliding workload, sweeping the number of
// concurrent sliding windows. The three slice stores differ exactly in their tails: the lazy
// store folds O(window slices) at every emission, the FlatFAT eager store
// pays O(log s) per update plus occasional leaf-ring compactions, and the
// DABA ring answers each emission in a worst-case-constant number of
// combines. Two tables from the same runs: per-tuple p99 and p999.
func FigTailLatency(w io.Writer, sc Scale) error {
	cols := append([]string{"windows"}, techniqueNames(tailTechniques)...)
	p99 := benchutil.NewTable("Tail latency — eviction-heavy sliding windows, per-tuple p99 (ns)", cols...)
	p999 := benchutil.NewTable("Tail latency — eviction-heavy sliding windows, per-tuple p999 (ns)", cols...)
	for _, n := range sc.windowsSweep() {
		row99, row999 := []any{n}, []any{n}
		for _, t := range tailTechniques {
			q, err := tailPoint(t, n, sc.events(t, n))
			if err != nil {
				return err
			}
			row99, row999 = append(row99, q["p99"]), append(row999, q["p999"])
		}
		p99.Add(row99...)
		p999.Add(row999...)
	}
	p99.Print(w)
	p999.Print(w)
	return nil
}

// fig15Point returns the mean time to recompute one slice aggregate of f from
// n stored tuples, timed over rounds recomputations.
func fig15Point[A any](f aggregate.Function[stream.Tuple, A, float64], n, rounds int) time.Duration {
	ev := evenEvents(n)
	var s float64
	d := benchutil.MeasureLatency(func() { s = f.Lower(aggregate.Recompute(f, ev)) }, 1, rounds)
	_ = s
	return d
}

// Fig15 — §6.3.3: the cost of the split operation — recomputing a slice
// aggregate from its stored tuples — as a function of the tuples per slice,
// for an algebraic (sum) and a holistic (median) function. Context-aware
// windows can estimate their throughput decay from this curve.
func Fig15(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 15 — processing time for recomputing slice aggregates (µs)",
		"tuples-per-slice", "sum", "median")
	for _, n := range []int{10, 100, 1000, 10_000, 100_000} {
		rounds := 50
		if n >= 10_000 {
			rounds = 5
		}
		sum := fig15Point(aggregate.Sum(stream.Val), n, rounds)
		med := fig15Point(aggregate.Median(stream.Val), n, rounds)
		tab.Add(n, float64(sum)/float64(time.Microsecond), float64(med)/float64(time.Microsecond))
	}
	tab.Print(w)
	return nil
}

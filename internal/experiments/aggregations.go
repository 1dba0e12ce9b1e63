package experiments

import (
	"io"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/rle"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fig13Row measures general (lazy) slicing throughput for one aggregation
// function on time-based and count-based windows (20 concurrent windows, 20%
// out-of-order tuples with delays up to 2 s — the §6.3.2 setup).
func fig13Row[A, Out any](sc Scale, f aggregate.Function[stream.Tuple, A, Out]) (timeTps, countTps float64, err error) {
	events := sc.Events
	if f.Props().Kind == aggregate.Holistic {
		events = sc.Events / 4 // holistic merges dominate; keep runtime bounded
	}
	for i, defs := range []func() []window.Definition{
		func() []window.Definition { return benchutil.TumblingQueries(20) },
		func() []window.Definition { return benchutil.CountQueries(20) },
	} {
		in := benchutil.MakeInput(stream.Football(), events, disorder20(19), 42)
		op, err := benchutil.NewOp(benchutil.LazySlicing, f, benchutil.Workload{Lateness: 4000, Defs: defs})
		if err != nil {
			return 0, 0, err
		}
		tps, _ := benchutil.Throughput(op, in)
		if i == 0 {
			timeTps = tps
		} else {
			countTps = tps
		}
	}
	return timeTps, countTps, nil
}

// Fig13 — §6.3.2: impact of the aggregation function, time- vs count-based
// windows. The list mirrors Tangwongsan et al. [42] plus the paper's naive
// (non-invertible) sum and the holistic median and 90-percentile.
func Fig13(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 13 — aggregation functions, general slicing (tuples/s)",
		"aggregation", "class", "invertible", "time-based", "count-based")
	v := stream.Val

	rows := []struct {
		name, class string
		inv         bool
		run         func() (float64, float64, error)
	}{
		{"count", "distributive", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.Count[stream.Tuple]()) }},
		{"sum", "distributive", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.Sum(v)) }},
		{"sum w/o invert", "distributive", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.NaiveSum(v)) }},
		{"min", "distributive", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.Min(v)) }},
		{"max", "distributive", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.Max(v)) }},
		{"mean", "algebraic", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.Mean(v)) }},
		{"geomean", "algebraic", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.GeoMean(v)) }},
		{"stddev", "algebraic", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.StdDev(v)) }},
		{"mincount", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.MinCount(v)) }},
		{"maxcount", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.MaxCount(v)) }},
		{"argmin", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.ArgMin(v)) }},
		{"argmax", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.ArgMax(v)) }},
		{"first", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.First(v)) }},
		{"last", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.Last(v)) }},
		{"m4", "algebraic", false, func() (float64, float64, error) { return fig13Row(sc, aggregate.M4(v)) }},
		{"median", "holistic", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.Median(v)) }},
		{"90-percentile", "holistic", true, func() (float64, float64, error) { return fig13Row(sc, aggregate.Percentile(0.9, v)) }},
	}
	for _, r := range rows {
		timeTps, countTps, err := r.run()
		if err != nil {
			return err
		}
		tab.Add(r.name, r.class, r.inv, timeTps, countTps)
	}

	tab.Print(w)
	return nil
}

// fig14Techniques: the paper omits aggregate trees here ("can hardly compute
// holistic aggregates").
var fig14Techniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.TupleBuckets, benchutil.TupleBuffer,
}

// Fig14 — §6.3.2: holistic aggregations across techniques and data sets.
// The machine stream (37 distinct values) compresses better under run-length
// encoding than the football stream (84 232 distinct values), which lifts
// slicing throughput.
func Fig14(w io.Writer, sc Scale) error {
	for _, q := range []struct {
		name string
		f    func() aggregate.Function[stream.Tuple, *multiset, float64]
	}{
		{"median", func() aggregate.Function[stream.Tuple, *multiset, float64] { return aggregate.Median(stream.Val) }},
		{"90-percentile", func() aggregate.Function[stream.Tuple, *multiset, float64] {
			return aggregate.Percentile(0.9, stream.Val)
		}},
	} {
		tab := benchutil.NewTable("Fig 14 — holistic aggregation ("+q.name+") across techniques (tuples/s)",
			"technique", "football", "machine")
		for _, t := range fig14Techniques {
			row := []any{string(t)}
			for _, p := range []stream.Profile{stream.Football(), stream.Machine()} {
				in := benchutil.MakeInput(p, sc.events(t, 20)/4, disorder20(23), 42)
				op, err := benchutil.NewOp(t, q.f(), benchutil.Workload{
					Lateness: 4000,
					Defs:     func() []window.Definition { return benchutil.WithSession(benchutil.TumblingQueries(20)) },
				})
				if err != nil {
					return err
				}
				tps, _ := benchutil.Throughput(op, in)
				row = append(row, tps)
			}
			tab.Add(row...)
		}
		tab.Print(w)
	}
	return nil
}

// multiset aliases the holistic partial-aggregate type for readability.
type multiset = rle.Multiset

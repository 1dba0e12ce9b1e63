package experiments

import (
	"io"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/rle"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fig13Fn is one aggregation function of Fig 13 and its point.
type fig13Fn struct {
	name, class   string
	inv, holistic bool
	point         func(m stream.Measure, events int) (float64, error)
}

// fig13Of binds f to Fig 13's point (the §6.3.2 setup): general (lazy)
// slicing holding 20 windows on measure m.
func fig13Of[A, Out any](name, class string, inv bool, f aggregate.Function[stream.Tuple, A, Out]) fig13Fn {
	return fig13Fn{name, class, inv, f.Props().Kind == aggregate.Holistic,
		func(m stream.Measure, events int) (float64, error) {
			return measurePoint(benchutil.LazySlicing, f, m, 20, 19, events)
		}}
}

// fig13Fns mirrors Tangwongsan et al. [42] plus the paper's naive
// (non-invertible) sum and the holistic median and 90-percentile.
func fig13Fns() []fig13Fn {
	v := stream.Val
	return []fig13Fn{
		fig13Of("count", "distributive", true, aggregate.Count[stream.Tuple]()),
		fig13Of("sum", "distributive", true, aggregate.Sum(v)),
		fig13Of("sum w/o invert", "distributive", false, aggregate.NaiveSum(v)),
		fig13Of("min", "distributive", false, aggregate.Min(v)),
		fig13Of("max", "distributive", false, aggregate.Max(v)),
		fig13Of("mean", "algebraic", true, aggregate.Mean(v)),
		fig13Of("geomean", "algebraic", true, aggregate.GeoMean(v)),
		fig13Of("stddev", "algebraic", true, aggregate.StdDev(v)),
		fig13Of("mincount", "algebraic", false, aggregate.MinCount(v)),
		fig13Of("maxcount", "algebraic", false, aggregate.MaxCount(v)),
		fig13Of("argmin", "algebraic", false, aggregate.ArgMin(v)),
		fig13Of("argmax", "algebraic", false, aggregate.ArgMax(v)),
		fig13Of("first", "algebraic", false, aggregate.First(v)),
		fig13Of("last", "algebraic", false, aggregate.Last(v)),
		fig13Of("m4", "algebraic", false, aggregate.M4(v)),
		fig13Of("median", "holistic", true, aggregate.Median(v)),
		fig13Of("90-percentile", "holistic", true, aggregate.Percentile(0.9, v)),
	}
}

// Fig13 — §6.3.2: impact of the aggregation function, time- vs count-based
// windows.
func Fig13(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 13 — aggregation functions, general slicing (tuples/s)",
		"aggregation", "class", "invertible", "time-based", "count-based")
	for _, fn := range fig13Fns() {
		events := sc.Events
		if fn.holistic {
			events = sc.Events / 4 // holistic merges dominate; keep runtime bounded
		}
		row := []any{fn.name, fn.class, fn.inv}
		for _, m := range []stream.Measure{stream.Time, stream.Count} {
			tps, err := fn.point(m, events)
			if err != nil {
				return err
			}
			row = append(row, tps)
		}
		tab.Add(row...)
	}
	tab.Print(w)
	return nil
}

// fig14Techniques: the paper omits aggregate trees here ("can hardly compute
// holistic aggregates").
var fig14Techniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.TupleBuckets, benchutil.TupleBuffer,
}

// fig14Point replays events tuples of profile p, 20% of them late, through
// technique t holding 20 tumbling windows plus a session with the holistic
// aggregation f, and returns its throughput (tuples/s).
func fig14Point(f aggregate.Function[stream.Tuple, *multiset, float64], p stream.Profile, t benchutil.Technique, events int) (float64, error) {
	op, err := benchutil.NewOp(t, f, benchutil.Workload{
		Lateness: 4000,
		Defs:     func() []window.Definition { return benchutil.WithSession(benchutil.TumblingQueries(20)) },
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(p, events, disorder20(23), 42))
	return tps, nil
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
				tps, err := fig14Point(q.f(), p, t, sc.events(t, 20)/4)
				if err != nil {
					return err
				}
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

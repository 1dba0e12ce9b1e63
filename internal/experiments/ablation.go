package experiments

import (
	"io"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/core"
	"scotty/internal/memsize"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Ablations isolates the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//  1. invert on/off for the count-shift cascade (sum vs sum-without-invert,
//     count windows, out-of-order input — Fig 6 / §6.3.2),
//  2. run-length encoding on/off for holistic slices (§5.4.1),
//  3. the Fig 4 adaptivity: forcing tuple storage on a workload that does
//     not need it (the cost a non-adaptive general technique pays),
//  4. the stream slicer's next-edge cache (§5.3 step 1: "the majority of
//     tuples ... require just one comparison").
func Ablations(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Ablations — design choices of general slicing",
		"ablation", "variant", "tuples/s", "state-bytes")

	// 1. Invertibility in the count-shift cascade.
	countDefs := func() []window.Definition { return benchutil.CountQueries(20) }
	for _, v := range []struct {
		name string
		f    aggregate.Function[stream.Tuple, float64, float64]
	}{
		{"invert on (sum)", aggregate.Sum(stream.Val)},
		{"invert off (naive sum)", aggregate.NaiveSum(stream.Val)},
	} {
		in := benchutil.MakeInput(stream.Football(), sc.Events/2, disorder20(29), 42)
		op, err := benchutil.NewOp(benchutil.LazySlicing, v.f, benchutil.Workload{Lateness: 4000, Defs: countDefs})
		if err != nil {
			return err
		}
		tps, _ := benchutil.Throughput(op, in)
		tab.Add("count-shift cascade", v.name, tps, "")
	}

	// 2. RLE for holistic partial aggregates (machine profile: 37 distinct
	// values, where compression matters most).
	timeDefs := func() []window.Definition { return benchutil.TumblingQueries(20) }
	{
		in := benchutil.MakeInput(stream.Machine(), sc.Events/8, disorder20(31), 42)
		op, err := benchutil.NewOp(benchutil.LazySlicing, aggregate.Median(stream.Val), benchutil.Workload{Lateness: 4000, Defs: timeDefs})
		if err != nil {
			return err
		}
		tps, _ := benchutil.Throughput(op, in)
		tab.Add("holistic slices", "RLE multiset", tps, "")

		in = benchutil.MakeInput(stream.Machine(), sc.Events/8, disorder20(31), 42)
		op, err = benchutil.NewOp(benchutil.LazySlicing, aggregate.MedianNaive(stream.Val), benchutil.Workload{Lateness: 4000, Defs: timeDefs})
		if err != nil {
			return err
		}
		tps, _ = benchutil.Throughput(op, in)
		tab.Add("holistic slices", "plain sorted values", tps, "")
	}

	// 3. The Fig 4 decision: a CF commutative workload needs no tuples;
	// a non-adaptive general technique would store them anyway.
	for _, v := range []struct {
		name string
		keep *bool
	}{
		{"adaptive (no tuples kept)", nil},
		{"forced tuple storage", ptr(true)},
	} {
		ag := core.New(benchutil.SumFn(), core.Options{Lateness: 4000, KeepTuples: v.keep})
		for _, d := range benchutil.TumblingQueries(20) {
			ag.MustAddQuery(d)
		}
		in := benchutil.MakeInput(stream.Football(), sc.Events/2, disorder20(37), 42)
		tps, _ := benchutil.Throughput(func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(ag.ProcessElement(it.Event))
			}
			return len(ag.ProcessWatermark(it.Watermark))
		}, in)
		tab.Add("Fig 4 adaptivity", v.name, tps, memsize.Of(ag))
	}

	// 4. The slicer's next-edge cache, under many concurrent queries.
	for _, v := range []struct {
		name    string
		disable bool
	}{
		{"edge cache on", false},
		{"edge cache off", true},
	} {
		ag := core.New(benchutil.SumFn(), core.Options{Ordered: true, DisableEdgeCache: v.disable})
		for _, d := range benchutil.TumblingQueries(200) {
			ag.MustAddQuery(d)
		}
		in := benchutil.MakeInput(stream.Football(), sc.Events/2, stream.Disorder{}, 42)
		tps, _ := benchutil.Throughput(func(it stream.Item[stream.Tuple]) int {
			if it.Kind == stream.KindEvent {
				return len(ag.ProcessElement(it.Event))
			}
			return len(ag.ProcessWatermark(it.Watermark))
		}, in)
		tab.Add("slicer edge cache", v.name, tps, "")
	}

	tab.Print(w)
	return nil
}

func ptr[T any](v T) *T { return &v }

package experiments

import (
	"io"

	"scotty/internal/benchutil"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fig8BatchSize is the chunking of the lazy-slicing-batch series — the
// engine's default channel batch, so the series measures exactly what the
// batched pipeline hands one operator instance.
const fig8BatchSize = 256

// fig8Workload is Fig 8's query set: n concurrent tumbling windows, in order.
func fig8Workload(n int) benchutil.Workload {
	return benchutil.Workload{
		Ordered: true,
		Defs:    func() []window.Definition { return benchutil.TumblingQueries(n) },
	}
}

// fig8Point replays events in-order football tuples through technique t
// under Fig 8's workload and returns its throughput (tuples/s).
func fig8Point(t benchutil.Technique, n, events int) (float64, error) {
	op, err := benchutil.NewOp(t, benchutil.SumFn(), fig8Workload(n))
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(stream.Football(), events, stream.Disorder{}, 42))
	return tps, nil
}

// Fig8 — §6.2.1: throughput of in-order processing with context-free
// windows, sweeping the number of concurrent tumbling windows (lengths
// equally distributed between 1 and 20 s), sum aggregation, football stream.
// Series: lazy/eager general slicing, Pairs, Cutty, buckets, tuple buffer,
// aggregate tree, plus lazy slicing driven through the ProcessBatch run fast
// path (lazy-slicing-batch) to quantify the batch amortization.
func Fig8(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 8 — in-order throughput, context-free windows (tuples/s)",
		append(append([]string{"windows"}, techniqueNames(benchutil.AllTechniques)...), "lazy-slicing-batch")...)
	for _, n := range sc.windowsSweep() {
		row := []any{n}
		for _, t := range benchutil.AllTechniques {
			tps, err := fig8Point(t, n, sc.events(t, n))
			if err != nil {
				return err
			}
			row = append(row, tps)
		}
		// 4x the slicing budget: the batched series is fast enough that the
		// plain budget finishes in under a millisecond at quick scale, too
		// short to separate signal from timer noise.
		in := benchutil.MakeInput(stream.Football(), 4*sc.events(benchutil.LazySlicing, n), stream.Disorder{}, 42)
		bop, err := benchutil.NewBatchOp(benchutil.LazySlicing, benchutil.SumFn(), fig8Workload(n))
		if err != nil {
			return err
		}
		tps, _ := benchutil.ThroughputBatched(bop, in, fig8BatchSize)
		row = append(row, tps)
		tab.Add(row...)
	}
	tab.Print(w)
	return nil
}

// fig9Techniques: the paper drops the in-order-only specialized slicers here.
var fig9Techniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.Buckets,
	benchutil.TupleBuffer, benchutil.AggTree,
}

// fig9Point replays events tuples of profile p, 20% of them late, through
// technique t holding n tumbling windows plus a session, and returns its
// throughput (tuples/s).
func fig9Point(p stream.Profile, t benchutil.Technique, n, events int) (float64, error) {
	op, err := benchutil.NewOp(t, benchutil.SumFn(), benchutil.Workload{
		Lateness: 4000,
		Defs: func() []window.Definition {
			return benchutil.WithSession(benchutil.TumblingQueries(n))
		},
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(p, events, disorder20(7), 42))
	return tps, nil
}

// Fig9 — §6.2.2: throughput under constraints — the Fig 8 workload plus a
// session window (gap 1 s) and 20% out-of-order tuples with delays up to 2 s,
// on both data sets.
func Fig9(w io.Writer, sc Scale) error {
	for _, p := range []stream.Profile{stream.Football(), stream.Machine()} {
		tab := benchutil.NewTable("Fig 9 — throughput with 20% out-of-order + session windows, "+p.Name+" (tuples/s)",
			append([]string{"windows"}, techniqueNames(fig9Techniques)...)...)
		for _, n := range sc.windowsSweep() {
			row := []any{n}
			for _, t := range fig9Techniques {
				tps, err := fig9Point(p, t, n, sc.events(t, n))
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

// fig12Point replays events football tuples under disorder d through
// technique t holding 20 tumbling windows plus a session, and returns its
// throughput (tuples/s).
func fig12Point(t benchutil.Technique, d stream.Disorder, lateness int64, events int) (float64, error) {
	op, err := benchutil.NewOp(t, benchutil.SumFn(), benchutil.Workload{
		Lateness: lateness,
		Defs:     func() []window.Definition { return benchutil.WithSession(benchutil.TumblingQueries(20)) },
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(stream.Football(), events, d, 42))
	return tps, nil
}

// fig12aDisorder is Fig 12a's stream order at a given out-of-order fraction.
func fig12aDisorder(frac float64) stream.Disorder {
	return stream.Disorder{Fraction: frac, MaxDelay: 2000, Seed: 11}
}

// Fig12 — §6.3.1: impact of stream order. (a) sweep the fraction of
// out-of-order tuples; (b) sweep the delay range of out-of-order tuples.
// 20 concurrent windows + session, sum.
func Fig12(w io.Writer, sc Scale) error {
	// The stream span must dwarf the out-of-order delays, so the slow
	// techniques get a larger budget here than in the window sweeps.
	events := func(t benchutil.Technique) int { return max(sc.events(t, 20), sc.SlowEvents*4) }

	tabA := benchutil.NewTable("Fig 12a — throughput vs fraction of out-of-order tuples (tuples/s)",
		append([]string{"ooo-%"}, techniqueNames(fig9Techniques)...)...)
	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		row := []any{int(frac * 100)}
		for _, t := range fig9Techniques {
			tps, err := fig12Point(t, fig12aDisorder(frac), 4000, events(t))
			if err != nil {
				return err
			}
			row = append(row, tps)
		}
		tabA.Add(row...)
	}
	tabA.Print(w)

	tabB := benchutil.NewTable("Fig 12b — throughput vs delay of out-of-order tuples (tuples/s)",
		append([]string{"delay-ms"}, techniqueNames(fig9Techniques)...)...)
	for _, delay := range []int64{500, 1000, 2000, 4000, 8000} {
		row := []any{delay}
		for _, t := range fig9Techniques {
			d := stream.Disorder{Fraction: 0.2, MaxDelay: delay, Seed: 13}
			tps, err := fig12Point(t, d, 2*delay, events(t))
			if err != nil {
				return err
			}
			row = append(row, tps)
		}
		tabB.Add(row...)
	}
	tabB.Print(w)
	return nil
}

// Fig16 — §6.3.4: impact of the window measure. Time- vs count-based
// windows, sweeping concurrent windows, general slicing vs the tuple buffer
// (the fastest alternative for count measures), 20% out-of-order tuples.
func Fig16(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 16 — window measures under 20% disorder (tuples/s)",
		"windows", "slicing-time", "slicing-count", "tuple-buffer-time", "tuple-buffer-count")
	for _, n := range sc.windowsSweep() {
		row := []any{n}
		for _, t := range []benchutil.Technique{benchutil.LazySlicing, benchutil.TupleBuffer} {
			for _, measure := range []stream.Measure{stream.Time, stream.Count} {
				in := benchutil.MakeInput(stream.Football(), sc.events(t, n), disorder20(17), 42)
				defs := func() []window.Definition {
					if measure == stream.Time {
						return benchutil.TumblingQueries(n)
					}
					return benchutil.CountQueries(n)
				}
				op, err := benchutil.NewOp(t, benchutil.SumFn(), benchutil.Workload{Lateness: 4000, Defs: defs})
				if err != nil {
					return err
				}
				tps, _ := benchutil.Throughput(op, in)
				row = append(row, tps)
			}
		}
		tab.Add(row...)
	}
	tab.Print(w)
	return nil
}

func techniqueNames(ts []benchutil.Technique) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(t)
	}
	return out
}

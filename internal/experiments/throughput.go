package experiments

import (
	"io"

	"scotty/internal/aggregate"
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

// fig8BatchPoint is fig8Point for lazy slicing driven through the
// ProcessBatch run fast path in fig8BatchSize-item chunks.
func fig8BatchPoint(n, events int) (float64, error) {
	op, err := benchutil.NewBatchOp(benchutil.LazySlicing, benchutil.SumFn(), fig8Workload(n))
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.ThroughputBatched(op, benchutil.MakeInput(stream.Football(), events, stream.Disorder{}, 42), fig8BatchSize)
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
		tps, err := fig8BatchPoint(n, 4*sc.events(benchutil.LazySlicing, n))
		if err != nil {
			return err
		}
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

// fig12aPoint is Fig 12a's point: a fraction frac of the tuples late by up
// to 2 s.
func fig12aPoint(t benchutil.Technique, frac float64, events int) (float64, error) {
	return fig12Point(t, stream.Disorder{Fraction: frac, MaxDelay: 2000, Seed: 11}, 4000, events)
}

// fig12bPoint is Fig 12b's point: 20% of the tuples late by up to delay ms,
// under an allowed lateness of twice that.
func fig12bPoint(t benchutil.Technique, delay int64, events int) (float64, error) {
	return fig12Point(t, stream.Disorder{Fraction: 0.2, MaxDelay: delay, Seed: 13}, 2*delay, events)
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
			tps, err := fig12aPoint(t, frac, events(t))
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
			tps, err := fig12bPoint(t, delay, events(t))
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

// measurePoint replays events football tuples, 20% of them late
// (disorder20(seed)), through technique t holding n tumbling windows on
// measure m with aggregation f, and returns its throughput (tuples/s).
func measurePoint[A, Out any](t benchutil.Technique, f aggregate.Function[stream.Tuple, A, Out], m stream.Measure, n int, seed int64, events int) (float64, error) {
	defs := benchutil.TumblingQueries
	if m == stream.Count {
		defs = benchutil.CountQueries
	}
	op, err := benchutil.NewOp(t, f, benchutil.Workload{
		Lateness: 4000,
		Defs:     func() []window.Definition { return defs(n) },
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(stream.Football(), events, disorder20(seed), 42))
	return tps, nil
}

// fig16Point is Fig 16's point: sum over n windows on measure m.
func fig16Point(t benchutil.Technique, m stream.Measure, n, events int) (float64, error) {
	return measurePoint(t, benchutil.SumFn(), m, n, 17, events)
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
			for _, m := range []stream.Measure{stream.Time, stream.Count} {
				tps, err := fig16Point(t, m, n, sc.events(t, n))
				if err != nil {
					return err
				}
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

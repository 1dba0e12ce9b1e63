package experiments

import (
	"io"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/engine"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fig17Point replays events in-order football tuples through dop
// key-partitioned instances of technique t, each holding 80 tumbling M4
// windows, and returns the throughput (tuples/s) and CPU utilization (% of
// one core).
func fig17Point(t benchutil.Technique, dop, events int) (tps, cpu float64, err error) {
	newOp := func() (benchutil.Op, error) {
		return benchutil.NewOp(t, aggregate.M4(stream.Val), benchutil.Workload{
			Lateness: 1000,
			Defs:     func() []window.Definition { return benchutil.TumblingQueries(80) },
		})
	}
	// Validate the technique once up front; NewProcessor cannot report
	// errors, so the per-partition construction below reuses the
	// already-checked recipe.
	if _, err := newOp(); err != nil {
		return 0, 0, err
	}
	stats, err := engine.Run(engine.Config[stream.Tuple]{
		Parallelism: dop,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) engine.Processor[stream.Tuple] {
			op, _ := newOp()
			return engine.ProcessorFunc[stream.Tuple](func(it stream.Item[stream.Tuple]) int { return op(it) })
		},
	}, benchutil.MakeInput(stream.Football(), events, stream.Disorder{}, 42).Items)
	if err != nil {
		return 0, 0, err
	}
	return stats.Throughput(), stats.CPUUtilization(), nil
}

// Fig17 — §6.4: parallel stream slicing on the live-visualization dashboard
// workload — M4 aggregation [26], 80 concurrent windows per operator
// instance, key-partitioned across a varying degree of parallelism. Lazy
// general slicing is compared against the bucket operator. Reported:
// throughput (17a) and CPU utilization in percent of one core (17b).
func Fig17(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig 17 — parallel dashboard workload (M4, 80 windows/instance)",
		"parallelism", "slicing-tuples/s", "slicing-CPU%", "buckets-tuples/s", "buckets-CPU%")
	for dop := 1; dop <= sc.Parallelism; dop *= 2 {
		row := []any{dop}
		for _, t := range []benchutil.Technique{benchutil.LazySlicing, benchutil.Buckets} {
			events := sc.Events
			if t == benchutil.Buckets {
				events = sc.Events / 8
			}
			tps, cpu, err := fig17Point(t, dop, events)
			if err != nil {
				return err
			}
			row = append(row, tps, cpu)
		}
		tab.Add(row...)
	}
	tab.Add("cores", engine.Cores(), "", "", "")
	tab.Print(w)
	return nil
}

package experiments

import (
	"io"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// rlePoint replays events machine-profile tuples (37 distinct values, where
// compression matters most), 20% of them late, through lazy slicing holding
// 20 tumbling windows of the holistic median f, and returns its throughput
// (tuples/s).
func rlePoint[A any](f aggregate.Function[stream.Tuple, A, float64], events int) (float64, error) {
	op, err := benchutil.NewOp(benchutil.LazySlicing, f, benchutil.Workload{
		Lateness: 4000,
		Defs:     func() []window.Definition { return benchutil.TumblingQueries(20) },
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, benchutil.MakeInput(stream.Machine(), events, disorder20(31), 42))
	return tps, nil
}

// Ablations isolates a design choice DESIGN.md calls out beyond the paper's
// own figures: run-length encoding on/off for holistic slices (§5.4.1),
// aggregate.Median against aggregate.MedianNaive, the plain holistic
// reference. (Invertibility in the count-shift cascade is Fig 13's "sum" vs
// "sum w/o invert" on count-based windows.)
func Ablations(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Ablations — design choices of general slicing",
		"ablation", "variant", "tuples/s")
	rle, err := rlePoint(aggregate.Median(stream.Val), sc.Events/8)
	if err != nil {
		return err
	}
	plain, err := rlePoint(aggregate.MedianNaive(stream.Val), sc.Events/8)
	if err != nil {
		return err
	}
	tab.Add("holistic slices", "RLE multiset", rle)
	tab.Add("holistic slices", "plain sorted values", plain)
	tab.Print(w)
	return nil
}

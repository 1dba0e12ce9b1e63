package experiments

import (
	"io"

	"scotty/internal/benchutil"
	"scotty/internal/fleet"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// fleetSweep is the horizontal axis of the fleet figure: the number of
// correlated logical queries registered concurrently.
var fleetSweep = []int{1, 4, 16, 64, 256, 1024, 4096}

// fleetDefs builds q correlated sliding queries: eight distinct lengths
// (4–32 s) cycled, all sliding by 100 ms. The factoring optimizer rewrites
// the whole fleet onto a single 100 ms factor window, and from q = 9 on the
// cycle produces exact duplicates, so registration dedup carries most of the
// scaling.
func fleetDefs(q int) []window.Definition {
	defs := make([]window.Definition, q)
	for i := range defs {
		defs[i] = window.Sliding(stream.Time, int64(1+i%8)*4000, 100)
	}
	return defs
}

// fleetInput is the stream both fleet series replay: events in-order
// football tuples.
func fleetInput(events int) benchutil.Input {
	return benchutil.MakeInput(stream.Football(), events, stream.Disorder{}, 42)
}

// fleetEvents is the fleet figure's stream length: twice the slicing budget,
// because it must span the longest window (32 s) several times over, or
// ramp-up — during which long windows have not yet produced a single
// emission — dominates the run and understates the unshared series'
// steady-state fold cost.
func (sc Scale) fleetEvents() int { return 2 * sc.Events }

// fleetShared replays in through q correlated queries on the sharing layer
// and returns its throughput (tuples/s) and the plan it ran.
func fleetShared(q int, in benchutil.Input) (float64, fleet.PlanInfo) {
	fl := fleet.New(benchutil.SumFn(), fleet.Options{})
	for _, d := range fleetDefs(q) {
		fl.MustAddQuery(d)
	}
	tps, _ := benchutil.Throughput(func(it stream.Item[stream.Tuple]) int {
		if it.Kind == stream.KindEvent {
			return len(fl.ProcessElement(it.Event))
		}
		return len(fl.ProcessWatermark(it.Watermark))
	}, in)
	return tps, fl.Plan()
}

// fleetUnshared replays in through the same q queries as independent
// physical queries on one slicing core and returns its throughput (tuples/s).
// It replays the identical input as fleetShared: a shorter stream would also
// span less time than the longer windows, silently deleting the emission
// work the figure exists to measure.
func fleetUnshared(q int, in benchutil.Input) (float64, error) {
	op, err := benchutil.NewOp(benchutil.LazySlicing, benchutil.SumFn(), benchutil.Workload{
		Defs: func() []window.Definition { return fleetDefs(q) },
	})
	if err != nil {
		return 0, err
	}
	tps, _ := benchutil.Throughput(op, in)
	return tps, nil
}

// FigFleet — cost-based factor-window sharing (docs/SHARING.md): q correlated
// sliding queries through the sharing layer ("fleet-shared") versus the same
// queries as independent physical queries on one slicing core ("unshared"),
// football stream, in order. The unshared core pays a full per-query slice
// fold per emission, so its cost grows linearly in q; the fleet answers every
// member from one shared pane ring, leaving result fan-out as the only
// per-query cost. TestPaperShapes asserts both trends.
func FigFleet(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Fig fleet — factor-window sharing across correlated queries (tuples/s)",
		"queries", "fleet-shared", "unshared", "speedup", "physical", "touches-saved")
	in := fleetInput(sc.fleetEvents())
	for _, q := range fleetSweep {
		shared, plan := fleetShared(q, in)
		unshared, err := fleetUnshared(q, in)
		if err != nil {
			return err
		}
		speedup := 0.0
		if unshared > 0 {
			speedup = shared / unshared
		}
		tab.Add(q, shared, unshared, speedup, plan.Physical, plan.TouchesSaved)
	}
	tab.Print(w)
	return nil
}

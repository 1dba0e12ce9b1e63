package benchutil_test

import (
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/differential"
	"scotty/internal/fleet"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// The techniques the figures compare, as cases of the one differential
// harness: each computes the oracle's windows on the §6 workloads, so the
// throughput comparisons compare operators computing the same thing.

// paperSet is the §6.2 representative: tumbling queries of 1–20 s and a
// one-second session.
var paperSet = []differential.Spec{
	{Kind: differential.Tumbling, A: 1000}, {Kind: differential.Tumbling, A: 7333},
	{Kind: differential.Tumbling, A: 13666}, {Kind: differential.Tumbling, A: 20000},
	{Kind: differential.Session, A: 1000},
}

// disordered is a case on a quarter-disordered dense stream.
func disordered(tech benchutil.Technique, specs []differential.Spec, batch int) differential.Case {
	return differential.Case{Tech: tech, Specs: specs, Disorder: stream.Disorder{Fraction: 0.25, MaxDelay: 800, Seed: 91},
		Period: 1000, Lag: 801, Lateness: 2000, Keys: 1, Events: 20_000, MaxStep: 20, Seed: 42, Batch: batch}
}

// TestTechniquesAgreeUnderDisorder: every out-of-order technique against the
// oracle on the same workload.
func TestTechniquesAgreeUnderDisorder(t *testing.T) {
	for _, tech := range []benchutil.Technique{benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.TupleBuffer, benchutil.AggTree} {
		differential.Run(t, disordered(tech, paperSet, 1))
	}
}

// TestFleetSlicingAgreesUnderDisorder: a fleet the optimizer rewrites (three
// correlated sliding queries and a tumbling one share a 250 ms factor) beside
// an ineligible session, per item and in batches.
func TestFleetSlicingAgreesUnderDisorder(t *testing.T) {
	specs := []differential.Spec{
		{Kind: differential.Sliding, A: 4000, B: 250}, {Kind: differential.Sliding, A: 8000, B: 250},
		{Kind: differential.Sliding, A: 2000, B: 250}, {Kind: differential.Tumbling, A: 1000},
		{Kind: differential.Session, A: 1000},
	}
	for _, bs := range []int{1, 7, 256} {
		op, _ := differential.Run(t, disordered(benchutil.FleetSlicing, specs, bs))
		if p := op.Op.(*fleet.Fleet[stream.Tuple, float64, float64]).Plan(); p.Factored == 0 {
			t.Fatalf("workload was meant to factor, plan: %+v", p)
		}
	}
}

// TestDABASlicingAgreesInOrder: the in-order-only DABA store on an
// eviction-heavy sliding query beside the tumbling set, at several batch
// sizes; and the Op/BatchOp plumbing emits as many results either way.
func TestDABASlicingAgreesInOrder(t *testing.T) {
	specs := []differential.Spec{
		{Kind: differential.Tumbling, A: 1000}, {Kind: differential.Tumbling, A: 10500},
		{Kind: differential.Tumbling, A: 20000}, {Kind: differential.Sliding, A: 5000, B: 1000},
	}
	for _, bs := range []int{7, 256} {
		differential.Run(t, differential.Case{Tech: benchutil.DABASlicing, Specs: specs, Ordered: true,
			Period: 1000, Lag: 1, Keys: 1, Events: 20_000, MaxStep: 20, Seed: 42, Batch: bs})
	}
	w := benchutil.Workload{Ordered: true, Defs: func() []window.Definition {
		return append(benchutil.TumblingQueries(4), window.Sliding(stream.Time, 5000, 1000))
	}}
	sameCounts(t, benchutil.DABASlicing, w, benchutil.MakeInput(stream.Football(), 20_000, stream.Disorder{}, 42))
}

// TestBatchReplayAgreesWithTupleAtATime: the slicing stores through
// ProcessBatch at chunkings whose boundaries land mid-stream, mixing events,
// late tuples and watermarks, are the element run's row sequence; and every
// technique's BatchOp counts what its Op counts.
func TestBatchReplayAgreesWithTupleAtATime(t *testing.T) {
	for _, tech := range []benchutil.Technique{benchutil.LazySlicing, benchutil.EagerSlicing} {
		for _, bs := range []int{7, 256, 0} {
			differential.Run(t, disordered(tech, paperSet, bs))
		}
	}
	w := benchutil.Workload{Lateness: 2000, Defs: func() []window.Definition { return benchutil.WithSession(benchutil.TumblingQueries(4)) }}
	in := benchutil.MakeInput(stream.Football(), 20_000, stream.Disorder{Fraction: 0.25, MaxDelay: 800, Seed: 91}, 42)
	for _, tech := range []benchutil.Technique{benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.FleetSlicing, benchutil.TupleBuffer, benchutil.AggTree} {
		sameCounts(t, tech, w, in)
	}
}

// sameCounts requires the BatchOp of tech to emit as many results as its Op.
func sameCounts(t *testing.T, tech benchutil.Technique, w benchutil.Workload, in benchutil.Input) {
	t.Helper()
	op, err := benchutil.NewOp(tech, benchutil.SumFn(), w)
	if err != nil {
		t.Fatalf("NewOp: %v", err)
	}
	_, want := benchutil.Throughput(op, in)
	if want == 0 {
		t.Fatalf("%s emitted nothing", tech)
	}
	for _, bs := range []int{7, 256} {
		bop, err := benchutil.NewBatchOp(tech, benchutil.SumFn(), w)
		if err != nil {
			t.Fatalf("NewBatchOp: %v", err)
		}
		if _, got := benchutil.ThroughputBatched(bop, in, bs); got != want {
			t.Fatalf("%s bs=%d: BatchOp emitted %d results, Op emitted %d", tech, bs, got, want)
		}
	}
}

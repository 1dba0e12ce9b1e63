// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each function reproduces one experiment: it builds the
// paper's workload, drives every technique through the shared harness, and
// prints the same rows/series the paper plots. Each figure's workload is
// defined once, in its point functions: the figure prints its sweep from them,
// cmd/benchmark runs the figure, TestPaperShapes asserts the paper's
// orderings on them, and BenchmarkPaper/<id>/<series> pins one configuration
// per series as a testing.B benchmark.
package experiments

import (
	"io"

	"scotty/internal/benchutil"
	"scotty/internal/stream"
)

// Scale bounds experiment sizes so the suite runs in minutes on a laptop
// while preserving every trend. Quick() is used by tests; Full() approaches
// the paper's configuration.
type Scale struct {
	// Events is the number of tuples fed to fast (slicing) techniques.
	Events int
	// SlowEvents is the budget for quadratic-ish techniques (tuple
	// buffer, aggregate tree, buckets with many windows); throughput is
	// events/second either way, so smaller inputs only widen error bars.
	SlowEvents int
	// MaxWindows caps the concurrent-windows sweep (the paper goes to
	// 1000).
	MaxWindows int
	// MemTuples is the tuple count of the memory experiments (50 000 in
	// the paper).
	MemTuples int
	// LatencyMax is the largest entry count of the latency sweep (1e5 in
	// the paper).
	LatencyMax int
	// Parallelism is the maximum degree of parallelism of Fig 17.
	Parallelism int
	// MaxKeys caps the key-cardinality sweep of the memory-bound keyed
	// figure (membound). The sweep is defined up to 10^7 keys; the full
	// scale stops at 10^6 because the keyed path is single-operator
	// (one core) and each point replays tens of events per key.
	MaxKeys int
}

// Quick returns a scale suitable for smoke runs and CI.
func Quick() Scale {
	return Scale{Events: 60_000, SlowEvents: 8_000, MaxWindows: 100, MemTuples: 10_000, LatencyMax: 10_000, Parallelism: 4, MaxKeys: 10_000}
}

// Full returns the paper-sized scale.
func Full() Scale {
	return Scale{Events: 400_000, SlowEvents: 20_000, MaxWindows: 1000, MemTuples: 50_000, LatencyMax: 100_000, Parallelism: 8, MaxKeys: 1_000_000}
}

// windowsSweep is the horizontal axis of Figs 8, 9, 16.
func (sc Scale) windowsSweep() []int {
	all := []int{1, 5, 10, 20, 50, 100, 500, 1000}
	out := all[:0:0]
	for _, n := range all {
		if n <= sc.MaxWindows {
			out = append(out, n)
		}
	}
	return out
}

// events picks the tuple budget for a technique at a sweep point.
func (sc Scale) events(t benchutil.Technique, windows int) int {
	switch t {
	case benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing, benchutil.Pairs, benchutil.Cutty:
		return sc.Events
	case benchutil.Buckets, benchutil.TupleBuckets:
		if windows >= 100 {
			return sc.SlowEvents
		}
		return sc.Events / 4
	default: // tuple buffer, aggregate tree
		if windows >= 100 {
			return sc.SlowEvents / 4
		}
		return sc.SlowEvents
	}
}

// disorder20 is the paper's standard disorder: 20% late tuples, uniformly
// delayed by up to two seconds (§6.2.2).
func disorder20(seed int64) stream.Disorder {
	return stream.Disorder{Fraction: 0.2, MaxDelay: 2000, Seed: seed}
}

// experimentsByID maps command-line ids to experiment functions, in "all"
// execution order.
var experimentsByID = []struct {
	id  string
	run func(io.Writer, Scale) error
}{
	{"table1", Table1},
	{"8", Fig8},
	{"9", Fig9},
	{"10", Fig10},
	{"11", Fig11},
	{"12", Fig12},
	{"13", Fig13},
	{"14", Fig14},
	{"15", Fig15},
	{"16", Fig16},
	{"17", Fig17},
	{"taillat", FigTailLatency},
	{"fleet", FigFleet},
	{"membound", FigMemBound},
	{"ablation", Ablations},
}

// IDs lists the experiment ids Run accepts besides "all", in "all"
// execution order.
func IDs() []string {
	ids := make([]string, len(experimentsByID))
	for i, e := range experimentsByID {
		ids[i] = e.id
	}
	return ids
}

// Run executes the experiment with the given id (one of IDs, or "all") and
// writes its tables to w (as CSV if w is a benchutil.CSVWriter). The boolean reports
// whether the id named an experiment; the error is the first failure of an
// executed experiment.
func Run(id string, w io.Writer, sc Scale) (bool, error) {
	if id == "all" {
		for _, e := range experimentsByID {
			if err := e.run(w, sc); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	for _, e := range experimentsByID {
		if e.id == id {
			return true, e.run(w, sc)
		}
	}
	return false, nil
}

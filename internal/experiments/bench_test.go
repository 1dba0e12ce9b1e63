package experiments

import (
	"strconv"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/benchutil"
	"scotty/internal/stream"
)

// paperSeries is one sub-benchmark of BenchmarkPaper: figure id, series, and
// the figure's own point function at one pinned configuration, called with
// b.N as its count (tuples, entries, keys or timed rounds) and reporting its
// value in unit.
type paperSeries struct {
	id, series, unit string
	point            func(n int) (float64, error)
}

// paperSeriesTable pins one configuration per series of every figure.
func paperSeriesTable() []paperSeries {
	var tab []paperSeries
	add := func(id, series, unit string, point func(n int) (float64, error)) {
		tab = append(tab, paperSeries{id, series, unit, point})
	}
	for i, r := range table1Rows(500) {
		add("table1", r.name, "state-bytes", func(n int) (float64, error) { return float64(table1Rows(n)[i].measured), nil })
	}
	for _, t := range benchutil.AllTechniques {
		add("8", string(t)+"/w20", "tuples/s", func(n int) (float64, error) { return fig8Point(t, 20, n) })
	}
	add("8", "lazy-slicing-batch/w20", "tuples/s", func(n int) (float64, error) { return fig8BatchPoint(20, n) })
	for _, t := range fig9Techniques {
		add("9", string(t)+"/w20", "tuples/s", func(n int) (float64, error) { return fig9Point(stream.Football(), t, 20, n) })
	}
	for _, t := range memTechniques {
		add("10", string(t), "state-bytes", func(n int) (float64, error) {
			return float64(stateBytes(t, stream.Time, n, 500)), nil
		})
	}
	for _, st := range fig11Stores {
		add("11", "sum/"+st.name, "ns", func(n int) (float64, error) { return fig11Sum(st.name, 10_000, n), nil })
		if st.name != "bucket-lookup" {
			add("11", "median/"+st.name, "ns", func(n int) (float64, error) { return fig11Median(st.name, 1000, n), nil })
		}
	}
	for _, frac := range []float64{0, 0.2, 0.6, 1.0} {
		add("12", "lazy-slicing/ooo-"+strconv.Itoa(int(frac*100))+"%", "tuples/s", func(n int) (float64, error) {
			return fig12aPoint(benchutil.LazySlicing, frac, n)
		})
	}
	for _, delay := range []int64{500, 2000, 8000} {
		add("12", "lazy-slicing/delay-"+strconv.Itoa(int(delay)), "tuples/s", func(n int) (float64, error) {
			return fig12bPoint(benchutil.LazySlicing, delay, n)
		})
	}
	for _, fn := range fig13Fns() {
		switch fn.name {
		case "sum", "sum w/o invert", "min", "mean", "median":
			for _, m := range []stream.Measure{stream.Time, stream.Count} {
				add("13", fn.name+"/"+m.String(), "tuples/s", func(n int) (float64, error) { return fn.point(m, n) })
			}
		}
	}
	for _, t := range []benchutil.Technique{benchutil.LazySlicing, benchutil.TupleBuffer} {
		for _, p := range []stream.Profile{stream.Football(), stream.Machine()} {
			add("14", "median/"+string(t)+"/"+p.Name, "tuples/s", func(n int) (float64, error) {
				return fig14Point(aggregate.Median(stream.Val), p, t, n)
			})
		}
	}
	for _, size := range []int{100, 10_000} {
		add("15", "sum/n"+strconv.Itoa(size), "ns", func(n int) (float64, error) {
			return float64(fig15Point(aggregate.Sum(stream.Val), size, n)), nil
		})
		add("15", "median/n"+strconv.Itoa(size), "ns", func(n int) (float64, error) {
			return float64(fig15Point(aggregate.Median(stream.Val), size, n)), nil
		})
	}
	for _, m := range []stream.Measure{stream.Time, stream.Count} {
		add("16", "lazy-slicing/"+m.String()+"/w20", "tuples/s", func(n int) (float64, error) {
			return fig16Point(benchutil.LazySlicing, m, 20, n)
		})
	}
	for _, dop := range []int{1, 2, 4} {
		add("17", "lazy-slicing/dop"+strconv.Itoa(dop), "tuples/s", func(n int) (float64, error) {
			tps, _, err := fig17Point(benchutil.LazySlicing, dop, n)
			return tps, err
		})
	}
	for _, t := range tailTechniques {
		add("taillat", string(t)+"/w20/p99", "ns", func(n int) (float64, error) {
			q, err := tailPoint(t, 20, n)
			return q["p99"], err
		})
	}
	add("fleet", "fleet-shared/q64", "tuples/s", func(n int) (float64, error) {
		tps, _ := fleetShared(64, fleetInput(n))
		return tps, nil
	})
	add("fleet", "unshared/q64", "tuples/s", func(n int) (float64, error) { return fleetUnshared(64, fleetInput(n)) })
	add("membound", "unbounded", "tuples/s", func(n int) (float64, error) {
		r, err := runMembound(n, 0)
		return r.tps, err
	})
	add("membound", "bounded", "tuples/s", func(n int) (float64, error) {
		_, r, _, err := membPoint(n)
		return r.tps, err
	})
	add("ablation", "rle", "tuples/s", func(n int) (float64, error) { return rlePoint(aggregate.Median(stream.Val), n) })
	add("ablation", "plain", "tuples/s", func(n int) (float64, error) { return rlePoint(aggregate.MedianNaive(stream.Val), n) })
	return tab
}

// BenchmarkPaper runs every figure's point functions as testing.B
// benchmarks, one sub-benchmark per series:
//
//	go test -run '^$' -bench '^BenchmarkPaper$' ./internal/experiments
//
// b.N is the point's count, so ns/op is the cost of one tuple (or entry,
// key or timed round) including setup; the reported metric is the point's
// own measurement. Inputs are materialized, so memory grows with b.N; pin
// -benchtime to a count (-benchtime 200000x) on a small machine.
// cmd/benchmark prints each figure's full sweep.
func BenchmarkPaper(b *testing.B) {
	for _, s := range paperSeriesTable() {
		b.Run(s.id+"/"+s.series, func(b *testing.B) {
			v, err := s.point(b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(v, s.unit)
		})
	}
}

// TestBenchmarkPaperCoversEveryFigure requires a BenchmarkPaper series for
// every experiment id.
func TestBenchmarkPaperCoversEveryFigure(t *testing.T) {
	has := map[string]bool{}
	for _, s := range paperSeriesTable() {
		has[s.id] = true
	}
	for _, id := range IDs() {
		if !has[id] {
			t.Errorf("experiment %q has no BenchmarkPaper series", id)
		}
	}
}

package experiments

import (
	"io"
	"reflect"
	"strconv"

	"scotty/internal/benchutil"
	"scotty/internal/core"
	"scotty/internal/memsize"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// evenEvents generates n tuples spaced 1 ms apart (memory experiments need
// exact control over the tuple/slice ratio, not a realistic rate).
func evenEvents(n int) []stream.Event[stream.Tuple] {
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i), Seq: int64(i), Value: stream.Tuple{V: float64(i % 997)}}
	}
	return ev
}

// buildState feeds n tuples into a fresh operator of technique t with a
// single tumbling query sized to yield `slices` slices (or windows/buckets)
// in the retained state, and returns the object to measure. Nothing is
// evicted: the allowed lateness exceeds the stream span, mirroring "in the
// allowed lateness" of Fig 10.
func buildState(t benchutil.Technique, m stream.Measure, n, slices int) any {
	length := int64(n / slices)
	if length < 1 {
		length = 1
	}
	op, err := benchutil.NewRows(t, benchutil.SumFn(), benchutil.Workload{
		Lateness: 1 << 40,
		Defs:     func() []window.Definition { return []window.Definition{window.Tumbling(m, length)} },
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	for _, e := range evenEvents(n) {
		op.Element(stream.EventItem(e))
	}
	return op.Op
}

var memTechniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.Buckets,
	benchutil.TupleBuffer, benchutil.AggTree,
}

var memTechniquesCount = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.TupleBuckets,
	benchutil.TupleBuffer, benchutil.AggTree,
}

// stateBytes is the retained size of buildState's operator.
func stateBytes(t benchutil.Technique, m stream.Measure, n, slices int) int64 {
	return memsize.Of(buildState(t, m, n, slices))
}

// fig10Tuples is the tuple sweep of Fig 10b/d (500 slices fixed).
var fig10Tuples = []int{1000, 5000, 10_000, 50_000}

// Fig10 — §6.2.3: memory consumption. (a/c) vary the slices in the allowed
// lateness at a fixed tuple count; (b/d) vary the tuples at a fixed 500
// slices. Time-based windows (a/b) let slicing and buckets store aggregates
// only; count-based windows (c/d) force every technique to keep tuples.
func Fig10(w io.Writer, sc Scale) error {
	type panel struct {
		name       string
		measure    stream.Measure
		techniques []benchutil.Technique
	}
	panels := []panel{
		{"Fig 10a/b — time-based windows (bytes)", stream.Time, memTechniques},
		{"Fig 10c/d — count-based windows (bytes)", stream.Count, memTechniquesCount},
	}
	sliceSweep := []int{10, 50, 100, 500, 1000, 5000}

	for _, p := range panels {
		tabA := benchutil.NewTable(p.name+": vary slices, "+strconv.Itoa(sc.MemTuples)+" tuples fixed",
			append([]string{"slices"}, techniqueNames(p.techniques)...)...)
		for _, s := range sliceSweep {
			if s > sc.MemTuples {
				continue
			}
			row := []any{s}
			for _, t := range p.techniques {
				row = append(row, stateBytes(t, p.measure, sc.MemTuples, s))
			}
			tabA.Add(row...)
		}
		tabA.Print(w)

		tabB := benchutil.NewTable(p.name+": vary tuples, 500 slices fixed",
			append([]string{"tuples"}, techniqueNames(p.techniques)...)...)
		for _, n := range fig10Tuples {
			if n > sc.MemTuples*5 {
				continue
			}
			row := []any{n}
			for _, t := range p.techniques {
				row = append(row, stateBytes(t, p.measure, n, 500))
			}
			tabB.Add(row...)
		}
		tabB.Print(w)
	}
	return nil
}

// table1Row is one technique class of Table 1: the paper's closed-form
// memory usage and the measured size of the same state.
type table1Row struct {
	name              string
	formula, measured int64
}

// table1Rows sizes all eight technique classes at n tuples and 500 slices
// (tumbling, so windows == slices), or one slice per tuple below 500 tuples.
func table1Rows(n int) []table1Row {
	s := min(500, n)
	win := n / (n / s)

	sizeEvent := int64(reflect.TypeOf(stream.Event[stream.Tuple]{}).Size())
	sizeAgg := int64(8)                                                                 // float64 partial aggregate
	sizeSlice := int64(reflect.TypeOf(core.Slice[stream.Tuple, float64]{}).Size()) + 16 // + pointer & list slot
	sizeBucket := int64(64)                                                             // bucket struct + map slot (approximate)

	return []table1Row{
		{"1 tuple buffer", int64(n) * sizeEvent,
			stateBytes(benchutil.TupleBuffer, stream.Time, n, s)},
		{"2 aggregate tree", int64(n)*sizeEvent + int64(n-1)*sizeAgg,
			stateBytes(benchutil.AggTree, stream.Time, n, s)},
		{"3 agg buckets", int64(win) * (sizeAgg + sizeBucket),
			stateBytes(benchutil.Buckets, stream.Time, n, s)},
		{"4 tuple buckets", int64(win) * (int64(n/win)*sizeEvent + sizeBucket),
			stateBytes(benchutil.TupleBuckets, stream.Count, n, s)},
		{"5 lazy slicing", int64(s) * sizeSlice,
			stateBytes(benchutil.LazySlicing, stream.Time, n, s)},
		{"6 eager slicing", int64(s)*sizeSlice + int64(s-1)*sizeAgg,
			stateBytes(benchutil.EagerSlicing, stream.Time, n, s)},
		{"7 lazy slicing on tuples", int64(n)*sizeEvent + int64(s)*sizeSlice,
			stateBytes(benchutil.LazySlicing, stream.Count, n, s)},
		{"8 eager slicing on tuples", int64(n)*sizeEvent + int64(s)*sizeSlice + int64(s-1)*sizeAgg,
			stateBytes(benchutil.EagerSlicing, stream.Count, n, s)},
	}
}

// Table1 compares the measured state sizes against the paper's closed-form
// memory-usage formulas for all eight technique classes.
func Table1(w io.Writer, sc Scale) error {
	tab := benchutil.NewTable("Table 1 — memory usage: measured vs formula (bytes)",
		"technique", "formula", "measured", "ratio")
	for _, r := range table1Rows(sc.MemTuples) {
		tab.Add(r.name, r.formula, r.measured, float64(r.measured)/float64(r.formula))
	}
	tab.Print(w)
	return nil
}

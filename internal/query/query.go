// Package query is the paper's query-translation front end (Fig 3): users
// specify queries in a small functional API; the translator observes each
// query's workload characteristics — window type, windowing measure,
// aggregation-function properties — together with the declared stream
// characteristics (in-order vs out-of-order) and forwards them to the
// general slicing aggregator, which adapts automatically (§5).
//
// The builder mirrors what a stream-SQL front end would lower to:
//
//	q := query.Over[float64](query.Stream{Ordered: false, Lateness: 5000}).
//	        Window(query.SlidingTime(10_000, 2_000)).
//	        Window(query.SessionGap(1_000)).
//	        Aggregate(aggregate.Sum(ident))
//	op, ids, err := q.Build()
package query

import (
	"fmt"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/fleet"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Stream declares the input-stream characteristics the translator cannot
// observe from queries alone (§5: "the query translator observes ... the
// characteristics of input streams").
type Stream struct {
	// Ordered guarantees chronological arrival.
	Ordered bool
	// Lateness is the allowed lateness for out-of-order streams (ms).
	Lateness int64
	// Eager requests the low-latency eager aggregate store.
	Eager bool
}

// options translates the stream declaration into the operator's options.
func (s Stream) options() core.Options {
	o := core.Options{Ordered: s.Ordered, Lateness: s.Lateness}
	if s.Eager {
		o.Store = core.StoreEager
	}
	return o
}

// WindowSpec is a declarative window description, turned into a concrete
// window.Definition at build time (so one spec can be reused across builds).
type WindowSpec[V any] struct {
	describe string
	make     func() window.Definition
}

// String describes the window for diagnostics.
func (w WindowSpec[V]) String() string { return w.describe }

// TumblingTime declares a tumbling window of length ms.
func TumblingTime[V any](length int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("TUMBLING(%d ms)", length),
		make:     func() window.Definition { return window.Tumbling(stream.Time, length) },
	}
}

// SlidingTime declares a sliding window of length ms advancing every slide ms.
func SlidingTime[V any](length, slide int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("SLIDING(%d ms, %d ms)", length, slide),
		make:     func() window.Definition { return window.Sliding(stream.Time, length, slide) },
	}
}

// TumblingCount declares a tumbling window of n tuples.
func TumblingCount[V any](n int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("TUMBLING(%d ROWS)", n),
		make:     func() window.Definition { return window.Tumbling(stream.Count, n) },
	}
}

// SlidingCount declares a sliding window of n tuples advancing every s tuples.
func SlidingCount[V any](n, s int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("SLIDING(%d ROWS, %d ROWS)", n, s),
		make:     func() window.Definition { return window.Sliding(stream.Count, n, s) },
	}
}

// SessionGap declares a session window with the given inactivity gap (ms).
func SessionGap[V any](gap int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("SESSION(%d ms)", gap),
		make:     func() window.Definition { return window.Session[V](gap) },
	}
}

// PunctuatedBy declares punctuation windows delimited by marker tuples.
func PunctuatedBy[V any](pred func(V) bool) WindowSpec[V] {
	return WindowSpec[V]{
		describe: "PUNCTUATED",
		make:     func() window.Definition { return window.Punctuation[V](pred) },
	}
}

// LastNEvery declares the FCA multi-measure window "last n tuples every p ms".
func LastNEvery[V any](n, p int64) WindowSpec[V] {
	return WindowSpec[V]{
		describe: fmt.Sprintf("LAST %d ROWS EVERY %d ms", n, p),
		make:     func() window.Definition { return window.CountInTime[V](n, p) },
	}
}

// Builder accumulates a multi-query specification over one stream.
type Builder[V, A, Out any] struct {
	strm    Stream
	windows []WindowSpec[V]
	fn      aggregate.Function[V, A, Out]
	hasFn   bool
}

// Over starts a specification for a stream of V-typed payloads. The
// aggregate type parameters are fixed by the later Aggregate call, so the
// untyped entry point defers them:
func Over[V any](s Stream) Phase1[V] { return Phase1[V]{strm: s} }

// Phase1 is the builder before the aggregation function is known.
type Phase1[V any] struct {
	strm    Stream
	windows []WindowSpec[V]
}

// Window adds a window query; every window shares the stream's slices.
func (p Phase1[V]) Window(w WindowSpec[V]) Phase1[V] {
	p.windows = append(p.windows, w)
	return p
}

// Aggregate fixes the aggregation function and completes the specification.
func Aggregate[V, A, Out any](p Phase1[V], f aggregate.Function[V, A, Out]) *Builder[V, A, Out] {
	return &Builder[V, A, Out]{strm: p.strm, windows: p.windows, fn: f, hasFn: true}
}

// Characteristics summarizes what the translator derived — the inputs of the
// paper's Fig 4 decision and §5 adaptation.
type Characteristics struct {
	Ordered       bool
	Commutative   bool
	Invertible    bool
	Kind          aggregate.Kind
	Measures      []stream.Measure
	ContextAware  int
	ContextFree   int
	ForwardAware  int
	Sessions      int
	StoresTuples  bool
	WindowSummary []string
}

// Build translates the specification into a configured general-slicing
// operator, returning the query ids in declaration order.
func (b *Builder[V, A, Out]) Build() (*core.Aggregator[V, A, Out], []int, error) {
	if !b.hasFn {
		return nil, nil, fmt.Errorf("query: no aggregation function specified")
	}
	if len(b.windows) == 0 {
		return nil, nil, fmt.Errorf("query: no window specified")
	}
	ag := core.New(b.fn, b.strm.options())
	ids := make([]int, 0, len(b.windows))
	for _, w := range b.windows {
		id, err := ag.AddQuery(w.make())
		if err != nil {
			return nil, nil, fmt.Errorf("query: %s: %w", w, err)
		}
		ids = append(ids, id)
	}
	return ag, ids, nil
}

// BuildFleet translates the specification into a query fleet — the sharing
// layer that dedups exact-duplicate windows and rewrites correlated periodic
// time windows onto cost-chosen factor windows (docs/SHARING.md) — returning
// the logical query ids in declaration order. Queries can be added and
// removed at runtime via the returned fleet; results carry logical ids.
func (b *Builder[V, A, Out]) BuildFleet() (*fleet.Fleet[V, A, Out], []int, error) {
	if !b.hasFn {
		return nil, nil, fmt.Errorf("query: no aggregation function specified")
	}
	if len(b.windows) == 0 {
		return nil, nil, fmt.Errorf("query: no window specified")
	}
	fl := fleet.New(b.fn, fleet.Options{Options: b.strm.options()})
	ids := make([]int, 0, len(b.windows))
	for _, w := range b.windows {
		id, err := fl.AddQuery(w.make())
		if err != nil {
			return nil, nil, fmt.Errorf("query: %s: %w", w, err)
		}
		ids = append(ids, id)
	}
	return fl, ids, nil
}

// Explain reports the derived workload characteristics without building an
// operator — the "what will the aggregator adapt to?" view.
func (b *Builder[V, A, Out]) Explain() (Characteristics, error) {
	ag, _, err := b.Build()
	if err != nil {
		return Characteristics{}, err
	}
	props := b.fn.Props()
	ch := Characteristics{
		Ordered:      b.strm.Ordered,
		Commutative:  props.Commutative,
		Invertible:   props.Invertible,
		Kind:         props.Kind,
		StoresTuples: ag.StoresTuples(),
	}
	seen := map[stream.Measure]bool{}
	for _, w := range b.windows {
		def := w.make()
		ch.WindowSummary = append(ch.WindowSummary, w.String())
		if !seen[def.Measure()] {
			seen[def.Measure()] = true
			ch.Measures = append(ch.Measures, def.Measure())
		}
		if _, cf := def.(window.ContextFree); cf {
			ch.ContextFree++
		} else {
			ch.ContextAware++
		}
		if window.IsForwardContextAware(def) {
			ch.ForwardAware++
		}
		if window.IsSession(def) {
			ch.Sessions++
		}
	}
	return ch, nil
}

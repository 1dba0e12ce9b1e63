// Package reference computes window aggregates by brute force, straight from
// the complete tuple log. It shares no code with the slicing core, the window
// library's trigger logic, or the baselines — it is the independent oracle
// the property tests compare every operator against: after all tuples and a
// final watermark, the last value an operator emitted for each window must
// equal the oracle's.
package reference

import (
	"sort"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
)

// Kind enumerates the window types the oracle understands.
type Kind uint8

const (
	Periodic Kind = iota // tumbling / sliding
	Session
	Punctuation
	CountInTime
)

// Query describes one window query in oracle terms.
type Query[V any] struct {
	Kind    Kind
	Measure stream.Measure // Periodic only; others imply their measure
	Length  int64          // Periodic: window length
	Slide   int64          // Periodic: slide step
	Gap     int64          // Session: inactivity gap
	Pred    func(V) bool   // Punctuation: boundary marker predicate
	N       int64          // CountInTime: tuples per window
	Every   int64          // CountInTime: trigger period (ms)
}

// Recut reports whether a late tuple can re-cut the query's windows after
// they were announced: a session extends or merges, a punctuation window
// splits. Every other query's extents are fixed in advance.
func (q Query[V]) Recut() bool { return q.Kind == Session || q.Kind == Punctuation }

// Final is one expected window result.
type Final[Out any] struct {
	Start, End int64
	Value      Out
	N          int64
}

// Canonical returns the events sorted in canonical (time, seq) order.
func Canonical[V any](events []stream.Event[V]) []stream.Event[V] {
	out := make([]stream.Event[V], len(events))
	copy(out, events)
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Finals computes the expected set of final window results for the query over
// the complete event set, given the final effective watermark (use
// stream.MaxTime when the stream ends with a closing watermark). Events may
// be passed in any order.
func Finals[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], events []stream.Event[V], finalWM int64) []Final[Out] {
	ev := Canonical(events)
	switch q.Kind {
	case Periodic:
		if q.Measure == stream.Time {
			return periodicTime(f, q, ev, finalWM)
		}
		return periodicCount(f, q, ev)
	case Session:
		return sessions(f, q, ev, finalWM)
	case Punctuation:
		return punctuations(f, q, ev, finalWM)
	case CountInTime:
		return countInTime(f, q, ev, finalWM)
	default:
		panic("reference: unknown query kind")
	}
}

// foldTime aggregates events with time in [from, to); events are canonical.
func foldTime[V, A, Out any](f aggregate.Function[V, A, Out], ev []stream.Event[V], from, to int64) (Out, int64) {
	lo := sort.Search(len(ev), func(i int) bool { return ev[i].Time >= from })
	hi := sort.Search(len(ev), func(i int) bool { return ev[i].Time >= to })
	return f.Lower(aggregate.Recompute(f, ev[lo:hi])), int64(hi - lo)
}

// foldRank aggregates events with canonical rank in [from, to).
func foldRank[V, A, Out any](f aggregate.Function[V, A, Out], ev []stream.Event[V], from, to int64) (Out, int64) {
	if from < 0 {
		from = 0
	}
	if to > int64(len(ev)) {
		to = int64(len(ev))
	}
	if from >= to {
		return f.Lower(f.Identity()), 0
	}
	return f.Lower(aggregate.Recompute(f, ev[from:to])), to - from
}

func maxTime[V any](ev []stream.Event[V]) int64 {
	m := stream.MinTime
	for _, e := range ev {
		if e.Time > m {
			m = e.Time
		}
	}
	return m
}

func periodicTime[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], ev []stream.Event[V], finalWM int64) []Final[Out] {
	var out []Final[Out]
	cap := maxTime(ev) + q.Length
	if finalWM > cap {
		finalWM = cap
	}
	for end := q.Length; end-1 <= finalWM; end += q.Slide {
		v, n := foldTime(f, ev, end-q.Length, end)
		out = append(out, Final[Out]{Start: end - q.Length, End: end, Value: v, N: n})
	}
	return out
}

func periodicCount[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], ev []stream.Event[V]) []Final[Out] {
	var out []Final[Out]
	total := int64(len(ev))
	for end := q.Length; end <= total; end += q.Slide {
		v, n := foldRank(f, ev, end-q.Length, end)
		out = append(out, Final[Out]{Start: end - q.Length, End: end, Value: v, N: n})
	}
	return out
}

func sessions[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], ev []stream.Event[V], finalWM int64) []Final[Out] {
	var out []Final[Out]
	i := 0
	for i < len(ev) {
		j := i + 1
		for j < len(ev) && ev[j].Time-ev[j-1].Time < q.Gap {
			j++
		}
		end := ev[j-1].Time + q.Gap
		if end-1 <= finalWM {
			v, n := foldTime(f, ev, ev[i].Time, end)
			out = append(out, Final[Out]{Start: ev[i].Time, End: end, Value: v, N: n})
		}
		i = j
	}
	return out
}

func punctuations[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], ev []stream.Event[V], finalWM int64) []Final[Out] {
	bounds := []int64{0}
	for _, e := range ev {
		if q.Pred(e.Value) {
			b := e.Time + 1
			if bounds[len(bounds)-1] != b {
				bounds = append(bounds, b)
			}
		}
	}
	var out []Final[Out]
	for i := 1; i < len(bounds); i++ {
		if bounds[i]-1 > finalWM {
			break
		}
		v, n := foldTime(f, ev, bounds[i-1], bounds[i])
		out = append(out, Final[Out]{Start: bounds[i-1], End: bounds[i], Value: v, N: n})
	}
	return out
}

func countInTime[V, A, Out any](f aggregate.Function[V, A, Out], q Query[V], ev []stream.Event[V], finalWM int64) []Final[Out] {
	var out []Final[Out]
	cap := maxTime(ev)
	if finalWM > cap {
		finalWM = cap
	}
	seen := map[[2]int64]bool{}
	for t := q.Every; t <= finalWM; t += q.Every {
		end := int64(sort.Search(len(ev), func(i int) bool { return ev[i].Time > t }))
		if end <= 0 {
			continue
		}
		start := end - q.N
		if start < 0 {
			start = 0
		}
		key := [2]int64{start, end}
		if seen[key] {
			continue
		}
		seen[key] = true
		v, n := foldRank(f, ev, start, end)
		out = append(out, Final[Out]{Start: start, End: end, Value: v, N: n})
	}
	return out
}

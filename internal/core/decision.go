package core

import (
	"scotty/internal/aggregate"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// needTuples implements the decision tree of Fig 4: which workload
// characteristics require storing individual tuples in memory?
//
// In-order streams: tuples are kept only for forward-context-aware windows,
// whose late-materializing edges split populated slices.
//
// Out-of-order streams: tuples are kept if at least one holds —
//  1. the aggregation function is non-commutative (out-of-order arrivals
//     force recomputation in aggregation order),
//  2. some window is context aware and not a session window (out-of-order
//     tuples can change backward context, adding edges that split populated
//     slices; sessions are exempt because their splits only ever land in
//     tuple-free gaps),
//  3. some query uses a count-based measure (an out-of-order tuple shifts
//     the rank of every later tuple, cascading tuples across slices).
//
// The decision depends only on workload characteristics — never on observed
// data — and is re-evaluated when queries are added or removed (§5.1).
func needTuples(ordered bool, props aggregate.Props, defs []window.Definition) bool {
	if ordered {
		for _, d := range defs {
			if window.IsForwardContextAware(d) {
				return true
			}
		}
		return false
	}
	if !props.Commutative {
		return true
	}
	for _, d := range defs {
		if _, cf := d.(window.ContextFree); !cf && !window.IsSession(d) {
			return true
		}
		if d.Measure() == stream.Count {
			return true
		}
	}
	return false
}

// periodicParams is how a definition states that it is tumbling or sliding:
// every edge is computable from a length and a slide.
type periodicParams interface{ Params() (length, slide int64) }

// sliceMajorKeyed decides how a keyed operator lays out its state: whether
// all keys can share one slice ring (slice-major), or each key needs an
// operator — a slicer and a ring — of its own.
//
// Slices can be shared exactly when their edges do not depend on the data:
// every query context-free and periodic on the time measure (§4.4: edges
// known a priori from length and slide — sessions derive them from tuples,
// count measures from ranks, both per key), and no tuples to keep (Fig 4,
// needTuples above): a non-commutative function must re-aggregate a slice
// in canonical order and so stores them. Ordered mode, the eager and DABA
// stores and partial taps are features of the single-key operator the
// shared ring does not reproduce; they keep it.
//
// Like Fig 4 the rule reads workload characteristics only, never observed
// data, and is evaluated once, when the keyed operator is built.
func sliceMajorKeyed(opts Options, keepTuples, tapped bool, defs []window.Definition) bool {
	if opts.Ordered || opts.Store != StoreLazy || keepTuples || tapped || len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		_, cf := d.(window.ContextFree)
		_, periodic := d.(periodicParams)
		if !cf || !periodic || d.Measure() != stream.Time {
			return false
		}
	}
	return true
}

package window

import (
	"fmt"
	"sort"

	"scotty/internal/stream"
)

// sessionDef implements session windows (Fig 1): a session covers a period of
// activity and times out after a gap of inactivity of length gap. Two tuples
// belong to the same session iff their time distance is strictly less than
// gap; the reported window extent is [firstTuple, lastTuple + gap).
//
// Sessions are context aware, but they are the one context-aware type that
// never forces tuple storage (§5.1): out-of-order tuples only extend sessions
// or merge adjacent sessions — slice splits only ever land in tuple-free
// regions, so no aggregate is ever recomputed from scratch.
type sessionDef[V any] struct {
	gap int64
}

// Session returns a session window with the given inactivity gap (time
// measure, milliseconds).
func Session[V any](gap int64) ContextAware[V] {
	if gap <= 0 {
		panic("window: session gap must be positive")
	}
	return sessionDef[V]{gap: gap}
}

func (sessionDef[V]) Measure() stream.Measure { return stream.Time }
func (sessionDef[V]) isSession()              {}

// Gap exposes the inactivity gap (consumed by the bucket baseline).
func (s sessionDef[V]) Gap() int64     { return s.gap }
func (s sessionDef[V]) String() string { return fmt.Sprintf("session(gap=%d)", s.gap) }

func (s sessionDef[V]) NewContext(view StoreView) Context[V] {
	return &sessionContext[V]{gap: s.gap, view: view, maxSeen: stream.MinTime}
}

// interval is one session: the event times of its first and last tuple.
type interval struct {
	first, last int64
}

type sessionContext[V any] struct {
	gap      int64
	view     StoreView
	sessions []interval // sorted by first; pairwise gap-separated
	maxSeen  int64
}

// locate returns the index of the first session with first >= ts.
func (c *sessionContext[V]) locate(ts int64) int {
	return sort.Search(len(c.sessions), func(i int) bool { return c.sessions[i].first >= ts })
}

// Observe folds one tuple into the session set. In-order tuples either extend
// the most recent session or start a new one; neither requires slice-edge
// changes (the slicer's cached next edge follows via NextEdge). Out-of-order
// tuples may create a session in the past (edges added around it, splitting
// only tuple-free regions), extend a session, or bridge two sessions (interior
// edges removed, merging their slices).
func (c *sessionContext[V]) Observe(e stream.Event[V], rank int64, inOrder bool) Changes {
	ts := e.Time
	if ts > c.maxSeen {
		c.maxSeen = ts
	}

	// Find the sessions a tuple at ts belongs to: the predecessor (if
	// within gap after its last tuple) and the successor (if within gap
	// before its first tuple).
	i := c.locate(ts + 1) // sessions[i-1].first <= ts
	joinPrev := i > 0 && ts-c.sessions[i-1].last < c.gap
	joinNext := i < len(c.sessions) && c.sessions[i].first-ts < c.gap
	prevContains := i > 0 && ts <= c.sessions[i-1].last

	var ch Changes
	switch {
	case prevContains:
		// Inside an existing session: no shape change.
		s := c.sessions[i-1]
		if !inOrder {
			ch.Updated = append(ch.Updated, Span{Start: s.first, End: s.last + c.gap})
		}
	case joinPrev && joinNext:
		// Bridges two sessions: merge them.
		a, b := c.sessions[i-1], c.sessions[i]
		merged := interval{first: a.first, last: b.last}
		c.sessions = append(c.sessions[:i-1], c.sessions[i:]...)
		c.sessions[i-1] = merged
		ch.Merge = append(ch.Merge, Span{Start: merged.first, End: merged.last + c.gap})
		ch.Updated = append(ch.Updated, Span{Start: merged.first, End: merged.last + c.gap})
	case joinPrev:
		// Extends the predecessor forward. In order, the slicer's cached
		// next edge follows via NextEdge; out of order, the old end may
		// already be an edge behind the stream, so the session's end moves
		// explicitly: an edge at the new end, the old one merged away.
		c.sessions[i-1].last = ts
		s := c.sessions[i-1]
		if !inOrder {
			end := s.last + c.gap
			ch.Add = append(ch.Add, end)
			ch.Merge = append(ch.Merge, Span{Start: s.first, End: end})
			ch.Updated = append(ch.Updated, Span{Start: s.first, End: end})
		}
	case joinNext:
		// Extends the successor backward: the window start moves from
		// sessions[i].first to ts. The region in between is tuple-free,
		// so no split is needed; re-emission covers shape changes.
		old := c.sessions[i]
		c.sessions[i].first = ts
		ch.Updated = append(ch.Updated, Span{Start: ts, End: old.last + c.gap})
	default:
		// A brand-new session.
		c.sessions = append(c.sessions, interval{})
		copy(c.sessions[i+1:], c.sessions[i:])
		c.sessions[i] = interval{first: ts, last: ts}
		if !inOrder {
			// Isolate the new session from neighbouring tuples with
			// edges at ts and ts+gap. Both positions fall in
			// tuple-free regions (gap separation), so the resulting
			// splits never recompute aggregates.
			ch.Add = append(ch.Add, ts, ts+c.gap)
			ch.Updated = append(ch.Updated, Span{Start: ts, End: ts + c.gap})
		}
	}
	return ch
}

func (c *sessionContext[V]) OnWatermark(prevWM, currWM int64) Changes { return Changes{} }

// NextEdge anticipates the end of the most recent session: its last tuple
// plus the gap. Earlier sessions' ends are already fixed edges cut by the
// slicer or still ahead of pos.
func (c *sessionContext[V]) NextEdge(pos int64) int64 {
	for k := len(c.sessions) - 1; k >= 0; k-- {
		end := c.sessions[k].last + c.gap
		if end > pos {
			// Report the smallest session end beyond pos.
			best := end
			for j := k - 1; j >= 0; j-- {
				if e := c.sessions[j].last + c.gap; e > pos && e < best {
					best = e
				}
			}
			return best
		}
	}
	return stream.MaxTime
}

// IsEdge reports whether pos is the start or end of a current session.
func (c *sessionContext[V]) IsEdge(pos int64) bool {
	for _, s := range c.sessions {
		if pos == s.first || pos == s.last+c.gap {
			return true
		}
	}
	return false
}

// NextTrigger reports the earliest session end past `after`.
func (c *sessionContext[V]) NextTrigger(after int64) int64 {
	next := stream.MaxTime
	for _, s := range c.sessions {
		if end := s.last + c.gap; end-1 > after && end-1 < next {
			next = end - 1
		}
	}
	return next
}

// Trigger emits sessions that timed out within (prevWM, currWM].
func (c *sessionContext[V]) Trigger(prevWM, currWM int64, emit func(start, end int64)) {
	for _, s := range c.sessions {
		end := s.last + c.gap
		if end-1 > prevWM && end-1 <= currWM {
			emit(s.first, end)
		}
	}
}

// Evict forgets sessions that timed out at or before the horizon; no late
// tuple can reach them anymore.
func (c *sessionContext[V]) Evict(timeHorizon, countHorizon int64) {
	keep := c.sessions[:0]
	for _, s := range c.sessions {
		if s.last+c.gap > timeHorizon {
			keep = append(keep, s)
		}
	}
	c.sessions = keep
}

// Interest keeps slices while a late tuple could still extend or bridge a
// session: anything newer than wm - lateness - gap, plus any session that has
// not yet timed out.
func (c *sessionContext[V]) Interest(wm, lateness int64) Interest {
	in := unboundedInterest()
	in.Time = wm - lateness - c.gap
	for _, s := range c.sessions {
		if s.last+c.gap > wm && s.first < in.Time {
			in.Time = s.first
		}
	}
	return in
}

package baselines

import (
	"fmt"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// sliceRec is the slice record of the specialized slicing baselines: a start
// position, a running partial aggregate, and a tuple count.
type sliceRec[A any] struct {
	start int64
	agg   A
	n     int64
}

// sliceView adapts the specialized slicers to window.StoreView (the periodic
// time trigger only consults MaxSeenTime).
type sliceView struct {
	maxSeen int64
	total   int64
}

func (v *sliceView) TotalCount() int64          { return v.total }
func (v *sliceView) MaxSeenTime() int64         { return v.maxSeen }
func (v *sliceView) CountAtTime(ts int64) int64 { return v.total }
func (v *sliceView) TimeAtCount(c int64) int64  { return v.maxSeen }

// Pairs implements the slicing technique of Krishnamurthy et al. [28]
// (§3.4, §6.2.1): the stream is sliced at the union of window start and end
// edges of all periodic queries — for a single sliding window this yields the
// eponymous two unequal "pairs" per slide period. Aggregation is lazy: when
// a window ends, the partial aggregates of its slices are combined. Pairs
// supports in-order streams and periodic (tumbling/sliding) time windows
// only — the limitation general stream slicing removes.
type Pairs[V, A, Out any] struct {
	f    aggregate.Function[V, A, Out]
	view sliceView

	queries []*query[V]
	nextID  int
	maxLen  int64

	slices   []sliceRec[A]
	nextEdge int64
	currWM   int64
	wake     int64 // cached earliest pending window end - 1

	results []Result[Out]
}

// NewPairs creates a Pairs operator.
func NewPairs[V, A, Out any](f aggregate.Function[V, A, Out]) *Pairs[V, A, Out] {
	return &Pairs[V, A, Out]{
		f:        f,
		view:     sliceView{maxSeen: stream.MinTime},
		slices:   []sliceRec[A]{{start: 0, agg: f.Identity()}},
		nextEdge: stream.MaxTime,
		currWM:   stream.MinTime,
	}
}

// AddQuery implements Operator; only periodic time windows are accepted.
func (p *Pairs[V, A, Out]) AddQuery(def window.Definition) int {
	cf, ok := def.(window.ContextFree)
	if !ok || def.Measure() != stream.Time {
		panic(fmt.Sprintf("baselines: Pairs supports periodic time windows only, got %T", def))
	}
	l, _ := periodicParams(cf)
	if l > p.maxLen {
		p.maxLen = l
	}
	q := &query[V]{id: p.nextID, def: def, cf: cf}
	p.nextID++
	p.queries = append(p.queries, q)
	p.refreshEdge()
	return q.id
}

func (p *Pairs[V, A, Out]) refreshEdge() {
	pos := p.slices[len(p.slices)-1].start
	p.nextEdge = stream.MaxTime
	for _, q := range p.queries {
		// Pairs cuts at both window starts and window ends.
		if e := q.cf.NextEdge(pos, false); e < p.nextEdge {
			p.nextEdge = e
		}
	}
}

// ProcessElement implements Operator. The input must be in order.
func (p *Pairs[V, A, Out]) ProcessElement(e stream.Event[V]) []Result[Out] {
	p.results = p.results[:0]
	if e.Time < p.view.maxSeen {
		panic("baselines: Pairs cannot process out-of-order tuples")
	}
	// Advance the view before triggering so window emission is never
	// postponed behind the observed stream (see Cutty).
	p.view.maxSeen = e.Time
	for p.nextEdge <= e.Time {
		p.slices = append(p.slices, sliceRec[A]{start: p.nextEdge, agg: p.f.Identity()})
		p.refreshEdge()
	}
	p.trigger(e.Time - 1)
	s := &p.slices[len(p.slices)-1]
	s.agg = aggregate.Add(p.f, s.agg, e)
	s.n++
	p.view.total++
	return p.results
}

// ProcessWatermark implements Operator.
func (p *Pairs[V, A, Out]) ProcessWatermark(wm int64) []Result[Out] {
	p.results = p.results[:0]
	p.trigger(wm)
	return p.results
}

func (p *Pairs[V, A, Out]) trigger(wm int64) {
	if wm <= p.currWM {
		return
	}
	if wm < p.wake {
		p.currWM = wm
		return
	}
	for _, q := range p.queries {
		q.cf.Trigger(&p.view, p.currWM, wm, func(s, e int64) { p.emit(q, s, e) })
	}
	p.currWM = wm
	p.wake = stream.MaxTime
	for _, q := range p.queries {
		if nt := q.cf.NextTrigger(&p.view); nt < p.wake {
			p.wake = nt
		}
	}
	p.evict(wm)
}

func (p *Pairs[V, A, Out]) emit(q *query[V], s, e int64) {
	// Lazy final aggregation: combine the slices covering [s, e).
	agg := p.f.Identity()
	var n int64
	for i := range p.slices {
		sl := &p.slices[i]
		if sl.start >= e {
			break
		}
		// The open slice holds tuples up to the newest seen; a window a
		// watermark triggers past it must not take them in.
		end := p.view.maxSeen + 1
		if i+1 < len(p.slices) {
			end = p.slices[i+1].start
		}
		if end <= s {
			continue
		}
		agg = p.f.Combine(agg, sl.agg)
		n += sl.n
	}
	p.results = append(p.results, Result[Out]{
		Query: q.id, Measure: stream.Time, Start: s, End: e, Value: p.f.Lower(agg), N: n,
	})
}

func (p *Pairs[V, A, Out]) evict(wm int64) {
	horizon := wm - p.maxLen
	k := 0
	for k < len(p.slices)-1 && p.slices[k+1].start <= horizon {
		k++
	}
	if k > 0 {
		p.slices = append(p.slices[:0], p.slices[k:]...)
	}
}

// NumSlices reports the live slice count.
func (p *Pairs[V, A, Out]) NumSlices() int { return len(p.slices) }

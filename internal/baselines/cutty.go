package baselines

import (
	"fmt"
	"sort"

	"scotty/internal/aggregate"
	"scotty/internal/fat"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Cutty implements the slicing technique of Carbone et al. [10] (§3.4,
// §6.2.1): the stream is sliced on the fly at *window start* edges only —
// the minimal edge set for in-order streams — and an aggregate tree (FlatFAT)
// over the slice aggregates answers window queries in O(log s) combine steps.
// Cutty generalizes to user-defined context-free windows but, unlike general
// stream slicing, supports in-order streams only.
type Cutty[V, A, Out any] struct {
	f    aggregate.Function[V, A, Out]
	view sliceView

	queries []*query[V]
	nextID  int
	maxLen  int64

	starts   []int64 // start position of each closed slice + the open one
	tree     *fat.Tree[A]
	openAgg  A
	openN    int64
	ns       []int64 // tuple count per closed slice
	nextEdge int64
	currWM   int64
	wake     int64 // cached earliest pending window end - 1

	results []Result[Out]
}

// NewCutty creates a Cutty operator.
func NewCutty[V, A, Out any](f aggregate.Function[V, A, Out]) *Cutty[V, A, Out] {
	return &Cutty[V, A, Out]{
		f:        f,
		view:     sliceView{maxSeen: stream.MinTime},
		starts:   []int64{0},
		tree:     fat.New(f.Combine, f.Identity()),
		openAgg:  f.Identity(),
		nextEdge: stream.MaxTime,
		currWM:   stream.MinTime,
	}
}

// AddQuery implements Operator; periodic time windows are accepted (Cutty's
// user-defined CF windows reduce to the same NextEdge/Trigger interface).
func (c *Cutty[V, A, Out]) AddQuery(def window.Definition) int {
	cf, ok := def.(window.ContextFree)
	if !ok || def.Measure() != stream.Time {
		panic(fmt.Sprintf("baselines: Cutty supports context-free time windows only, got %T", def))
	}
	l, _ := periodicParams(cf)
	if l > c.maxLen {
		c.maxLen = l
	}
	q := &query[V]{id: c.nextID, def: def, cf: cf}
	c.nextID++
	c.queries = append(c.queries, q)
	c.refreshEdge()
	return q.id
}

func (c *Cutty[V, A, Out]) refreshEdge() {
	pos := c.starts[len(c.starts)-1]
	c.nextEdge = stream.MaxTime
	for _, q := range c.queries {
		// Cutty cuts at window starts only (in-order minimality).
		if e := q.cf.NextEdge(pos, true); e < c.nextEdge {
			c.nextEdge = e
		}
	}
}

// ProcessElement implements Operator. The input must be in order.
func (c *Cutty[V, A, Out]) ProcessElement(e stream.Event[V]) []Result[Out] {
	c.results = c.results[:0]
	if e.Time < c.view.maxSeen {
		panic("baselines: Cutty cannot process out-of-order tuples")
	}
	// Advance the view before triggering: Cutty's starts-only slicing is
	// only correct when every window triggers at the first tuple past its
	// end, so window triggers must never be postponed.
	c.view.maxSeen = e.Time
	for c.nextEdge <= e.Time {
		// Close the open slice: its aggregate becomes a tree leaf.
		c.tree.Push(c.openAgg)
		c.ns = append(c.ns, c.openN)
		c.openAgg, c.openN = c.f.Identity(), 0
		c.starts = append(c.starts, c.nextEdge)
		c.refreshEdge()
	}
	c.trigger(e.Time - 1)
	c.openAgg = aggregate.Add(c.f, c.openAgg, e)
	c.openN++
	c.view.total++
	return c.results
}

// ProcessWatermark implements Operator.
func (c *Cutty[V, A, Out]) ProcessWatermark(wm int64) []Result[Out] {
	c.results = c.results[:0]
	c.trigger(wm)
	return c.results
}

func (c *Cutty[V, A, Out]) trigger(wm int64) {
	// A repeated watermark still triggers: a window the watermark passed
	// while it lay wholly after the newest tuple was postponed (empty so
	// far), and it must fire before the tuple that ends it joins the open
	// slice, which the window would otherwise take in.
	if wm < c.currWM {
		return
	}
	if wm < c.wake {
		c.currWM = wm
		return
	}
	for _, q := range c.queries {
		q.cf.Trigger(&c.view, c.currWM, wm, func(s, e int64) { c.emit(q, s, e) })
	}
	c.currWM = wm
	c.wake = stream.MaxTime
	for _, q := range c.queries {
		if nt := q.cf.NextTrigger(&c.view); nt < c.wake {
			c.wake = nt
		}
	}
	c.evict(wm)
}

func (c *Cutty[V, A, Out]) emit(q *query[V], s, e int64) {
	// Slices are cut at starts only, so a window end always coincides with
	// the present: the window covers a tree range plus the open slice.
	lo := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] >= s })
	hi := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] >= e })
	agg := c.f.Identity()
	var n int64
	if lo < hi {
		closedHi := hi
		if closedHi > c.tree.Len() {
			closedHi = c.tree.Len()
		}
		if lo < closedHi {
			agg = c.tree.Query(lo, closedHi)
			for i := lo; i < closedHi; i++ {
				n += c.ns[i]
			}
		}
		if hi == len(c.starts) { // the open slice is part of the window
			agg = c.f.Combine(agg, c.openAgg)
			n += c.openN
		}
	}
	c.results = append(c.results, Result[Out]{
		Query: q.id, Measure: stream.Time, Start: s, End: e, Value: c.f.Lower(agg), N: n,
	})
}

func (c *Cutty[V, A, Out]) evict(wm int64) {
	horizon := wm - c.maxLen
	k := 0
	for k < len(c.starts)-1 && c.starts[k+1] <= horizon {
		k++
	}
	if k > 0 {
		c.starts = append(c.starts[:0], c.starts[k:]...)
		c.ns = append(c.ns[:0], c.ns[k:]...)
		c.tree.RemoveFront(k)
	}
}

// NumSlices reports the live slice count (including the open one).
func (c *Cutty[V, A, Out]) NumSlices() int { return len(c.starts) }

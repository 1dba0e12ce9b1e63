package fleet

import (
	"cmp"
	"slices"

	"scotty/internal/core"
	"scotty/internal/stream"
)

// ProcessElement ingests one event and returns every logical-query result it
// produced. The returned slice is reused across calls.
func (fl *Fleet[V, A, Out]) ProcessElement(e stream.Event[V]) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessElement(e))
	fl.reEmit()
	fl.pump()
	return fl.results
}

// ProcessWatermark ingests a low watermark, triggering completed windows
// across the fleet.
func (fl *Fleet[V, A, Out]) ProcessWatermark(wm int64) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessWatermark(wm))
	fl.reEmit()
	fl.pump()
	return fl.results
}

// ProcessBatch ingests a run of stream items through the core's batched fast
// path. Factored updates and completions are appended once at the end of the
// batch, so within the returned slice a logical query's rows may come in
// another order than an unbatched run's; final per-window values are
// identical either way.
func (fl *Fleet[V, A, Out]) ProcessBatch(items []stream.Item[V]) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessBatch(items))
	fl.reEmit()
	fl.pump()
	return fl.results
}

// ingest fans physical results out to their logical subscribers. This is the
// per-emission hot path of the sharing layer: a map read to find the owning
// spec and one result append per subscriber, allocation-free in steady state.
//
//slicelint:hotpath
func (fl *Fleet[V, A, Out]) ingest(rs []core.Result[Out]) {
	for i := range rs {
		r := &rs[i]
		sp := fl.byPhys[r.Query]
		if sp == nil {
			continue
		}
		if !r.Update && r.End > sp.lastEnd {
			sp.lastEnd = r.End
		}
		for _, sb := range sp.subs {
			if r.End < sb.floor {
				continue // subscriber registered after this window
			}
			out := fl.nextResult()
			*out = *r
			out.Query = sb.id
		}
	}
}

// nextResult appends a slot to fl.results for the caller to fill in field by
// field: a Result literal appended whole is assembled on the stack and copied
// out, at a store-forwarding stall per row.
func (fl *Fleet[V, A, Out]) nextResult() *core.Result[Out] {
	n := len(fl.results)
	if n == cap(fl.results) {
		fl.results = append(fl.results, core.Result[Out]{})
	}
	fl.results = fl.results[:n+1]
	return &fl.results[n]
}

// pump advances the factored emission frontier on a call that moved the
// watermark. The common case — nothing factored is due — is two comparisons
// against cached wake positions.
func (fl *Fleet[V, A, Out]) pump() {
	if fl.nDraining > 0 {
		fl.checkFlips()
	}
	wm := fl.ag.Watermark()
	maxSeen := fl.ag.View().MaxSeenTime()
	moved := wm != fl.pumped
	fl.pumped = wm
	if !moved || wm < fl.wake && maxSeen < fl.parkWake {
		return
	}
	fl.drain(wm, maxSeen)
}

// drain emits every due factored window and refreshes wake positions and
// ring retention. A window [E-length, E) is due under exactly the rule the
// core's periodic trigger uses: E-1 <= watermark, capped at MaxSeen+length so
// windows wholly after the observed stream are postponed rather than emitted
// empty (window/periodic.go Trigger).
func (fl *Fleet[V, A, Out]) drain(wm, maxSeen int64) {
	for _, g := range fl.groups {
		for _, sp := range g.specs {
			if sp.mode != modeFactored {
				continue
			}
			if e, hi := sp.nextEnd(), min(wm, maxSeen+sp.length); e-1 <= hi {
				n := int64(1) // a watermark period is usually one slide
				if e+sp.slide-1 <= hi {
					n = (hi-e+1)/sp.slide + 1
				}
				fl.due = append(fl.due, due[A]{sp: sp, end: sp.next, step: sp.slideP, n: int(n)})
				sp.next += n * sp.slideP
			}
		}
		fl.emitDue(g, false)
		fl.evictPanes(g)
	}
	fl.refreshSchedule()
}

// checkFlips promotes draining specs whose ring coverage has caught up. A
// flip adds a factored spec the cached wake positions don't yet cover, so the
// schedule is refreshed before pump consults it.
func (fl *Fleet[V, A, Out]) checkFlips() {
	if fl.ag.Pending() > 0 {
		// A flip retires the spec's physical query, and with it the update
		// marks it holds for windows the ring may not cover; wait until the
		// next watermark has flushed them.
		return
	}
	before := fl.nDraining
	for _, g := range fl.groups {
		for _, sp := range g.specs {
			if sp.mode == modeDraining {
				fl.maybeFlip(g, sp)
			}
		}
	}
	if fl.nDraining != before {
		fl.refreshSchedule()
	}
}

// maybeFlip hands a draining spec over to its factor ring. The hand-over is
// safe once the ring's oldest pane is at or before the spec's next window
// start: every later window is then fully answerable from panes (panes arrive
// contiguously — the factor query's trigger never skips — and trailing panes
// missing from the ring are provably empty, see foldPanes). The physical
// query has emitted windows strictly in order up to lastEnd, so the factored
// cursor resumes at exactly the next one.
func (fl *Fleet[V, A, Out]) maybeFlip(g *group[A], sp *spec[A]) {
	if g.base < 0 {
		return
	}
	next := sp.resumeEnd() / g.factor
	if g.base > next-sp.lenP {
		return
	}
	fl.dropPhys(sp)
	sp.mode = modeFactored
	fl.nDraining--
	sp.next = next
	fl.m.physical.Set(int64(fl.physical()))
}

// emitDue folds the windows collected in fl.due from the pane ring, fans the
// results out to each member's subscribers, and empties fl.due.
//
// Folding is end-major: members are visited in ascending window length, and a
// window ending where a shorter member's window ends is that window extended
// to the left — Combine(fold(panes[start, shorter start)), shorter fold) — so
// windows that end together cost one ring read and one Combine each, not one
// O(log panes) range query each; a window alone at its end is the plain range
// query. The extension is always on the left and the gap is folded in leaf
// order, so non-commutative aggregates see the panes in stream order. memo
// holds, per window end of this pass, the longest fold so far; nothing is
// kept between passes, so ring writes and evictions have nothing to
// invalidate. Results are then appended member by member in fl.due's order —
// the order the unshared per-query path emits in.
//
// Window ends, lengths and the memo are counted in panes, so the memo slot and
// the ring leaves of a member's next window are its last ones plus its slide:
// no window costs a division.
//
// The slice-touch savings — what direct emissions would have folded minus
// the ring and chain combines actually spent — feed slice_touches_saved_total.
func (fl *Fleet[V, A, Out]) emitDue(g *group[A], update bool) {
	if len(fl.due) == 0 {
		return
	}
	lo, hi, total, sorted := stream.MaxTime, stream.MinTime, 0, true
	fl.byLen = fl.byLen[:0]
	for i := range fl.due {
		d := &fl.due[i]
		d.at = total
		total += d.n
		last := d.end + int64(d.n-1)*d.step
		lo, hi = min(lo, d.end, last), max(hi, d.end, last)
		sorted = sorted && (i == 0 || fl.due[i-1].sp.length <= d.sp.length)
		fl.byLen = append(fl.byLen, i)
	}
	if !sorted { // members registered shortest first are in chain order already
		slices.SortFunc(fl.byLen, func(a, b int) int { return cmp.Compare(fl.due[a].sp.length, fl.due[b].sp.length) })
	}
	ends := int(hi-lo) + 1
	fl.folded = slices.Grow(fl.folded[:0], total)[:total]
	fl.memo = slices.Grow(fl.memo[:0], ends)[:ends]
	none := suffix[A]{p: pane[A]{a: fl.f.Identity()}}
	for i := range fl.memo {
		fl.memo[i] = none
	}
	// Ring leaves are pane indices less g.base; panes past the ring's tail
	// hold no tuples (foldPanes).
	base, leaves := lo-g.base, int64(g.tree.Len())
	if g.base < 0 {
		leaves = 0
	}
	spent := -g.tree.Combines()
	for _, i := range fl.byLen {
		d := &fl.due[i]
		lenP := d.sp.lenP
		for k, e := 0, d.end-lo; k < d.n; k, e = k+1, e+d.step {
			m := &fl.memo[e]
			p, ok := fl.foldPanes(g, max(e+base-lenP, 0), min(e+base-m.length, leaves))
			if !ok {
				p = m.p
			} else if m.length > 0 {
				p = pane[A]{a: fl.f.Combine(p.a, m.p.a), n: p.n + m.p.n}
				spent++
			}
			m.length, m.p = lenP, p
			fl.folded[d.at+k] = p
		}
	}
	spent += g.tree.Combines()
	var direct int64
	for i := range fl.due {
		d := &fl.due[i]
		direct += int64(d.n) * d.sp.directFold
		end, step := d.end*g.factor, d.step*g.factor
		for k, e := 0, end; k < d.n; k, e = k+1, e+step {
			p := &fl.folded[d.at+k]
			v := fl.f.Lower(p.a)
			for _, sb := range d.sp.subs {
				if e < sb.floor {
					continue // subscriber registered after this window
				}
				r := fl.nextResult()
				r.Query, r.Measure, r.Start, r.End = sb.id, stream.Time, e-d.sp.length, e
				r.Value, r.N, r.Update = v, p.n, update
			}
		}
	}
	if direct > spent {
		fl.m.touchesSaved.Add(direct - spent)
	}
	fl.m.rewriteHits.Add(int64(total))
	fl.due = fl.due[:0]
}

// foldPanes folds ring leaves [lo, hi), reporting false when there are none.
// Window edges of factored specs are multiples of the factor, so a window maps
// exactly onto ring leaves; the caller clamps it to the ring. Panes missing
// beyond the ring's tail contain no tuples — the factor trigger's MaxSeen cap
// is the only thing that postpones a due pane, and it only postpones empty
// ones — so clamping to the ring is exact.
func (fl *Fleet[V, A, Out]) foldPanes(g *group[A], lo, hi int64) (pane[A], bool) {
	switch {
	case lo >= hi:
		return pane[A]{}, false
	case lo+1 == hi:
		return g.tree.Get(int(lo)), true
	}
	return g.tree.Query(int(lo), int(hi)), true
}

// tapFor builds the partial-aggregate consumer for a factor group's physical
// query. Completions append panes to the ring (the factor trigger emits
// strictly in order, so pushes are contiguous); an update overwrites the pane
// in place and marks it dirty for reEmit. So does a completion that the
// previous watermark already made due: the factor trigger postpones a pane
// while it lies wholly after the newest tuple, and a member window over it
// may have been emitted, with the pane folded as empty, before a late tuple
// filled it. (The core triggers before it moves its watermark, so Watermark
// is the previous one here.)
func (fl *Fleet[V, A, Out]) tapFor(g *group[A]) func(s, e int64, a A, n int64, update bool) {
	return func(s, e int64, a A, n int64, update bool) {
		idx := s / g.factor
		if !update {
			if g.base < 0 {
				g.base = idx
			}
			g.tree.Push(pane[A]{a: a, n: n})
			if n > 0 && e-1 <= fl.ag.Watermark() {
				g.markDirty(idx)
			}
			return
		}
		if g.base < 0 {
			return
		}
		i := idx - g.base
		if i < 0 || i >= int64(g.tree.Len()) {
			// A pane the ring never saw (before the group existed) or has
			// evicted: no factored window over it can be re-emitted anyway.
			return
		}
		g.tree.Set(int(i), pane[A]{a: a, n: n})
		g.markDirty(idx)
	}
}

// markDirty adds pane idx to the dirty set. A full set is sorted and
// deduplicated first, and grown if it stays over half full, as the core's
// update marks are.
func (g *group[A]) markDirty(idx int64) {
	if n := len(g.dirty); n > 0 && n == cap(g.dirty) {
		slices.Sort(g.dirty)
		g.dirty = slices.Compact(g.dirty)
		g.dirty = slices.Grow(g.dirty, len(g.dirty))
	}
	g.dirty = append(g.dirty, idx)
}

// reEmit re-emits, once each, the already-emitted factored windows that
// cover a dirty pane — the panes the core's update flushes and triggers wrote
// during this call — mirroring what the unshared core emits for the same late
// tuples: per spec, windows ascending, only those the cursor has already
// passed (the regular drain covers the rest) since the spec's own
// registration floor. Draining members are skipped — their own physical
// query emits their updates.
func (fl *Fleet[V, A, Out]) reEmit() {
	for _, g := range fl.groups {
		if len(g.dirty) == 0 {
			continue
		}
		slices.Sort(g.dirty)
		g.dirty = slices.Compact(g.dirty)
		for _, sp := range g.specs {
			if sp.mode == modeFactored {
				fl.coverDirty(g, sp)
			}
		}
		g.dirty = g.dirty[:0]
		fl.emitDue(g, true)
	}
}

// coverDirty queues sp's announced windows covering any of g's sorted dirty
// panes as runs of consecutive windows. Window k is [k*slide, k*slide+length):
// for pane [ps, pe) the newest one that starts at or before the pane and has
// been announced, down to the oldest one that still reaches the pane and the
// floor. Both bounds rise with the pane, so the windows of successive panes
// either extend the current run or start the next.
func (fl *Fleet[V, A, Out]) coverDirty(g *group[A], sp *spec[A]) {
	announced := (sp.nextEnd() - sp.slide - sp.length) / sp.slide
	lo, hi := int64(0), int64(-1) // the current run, windows lo..hi
	flush := func() {
		if lo <= hi {
			fl.due = append(fl.due, due[A]{sp: sp, end: lo*sp.slideP + sp.lenP, step: sp.slideP, n: int(hi - lo + 1)})
		}
	}
	for _, p := range g.dirty {
		ps := p * g.factor
		newest := min(ps/sp.slide, announced)
		oldest := max(0, (max(ps+g.factor, sp.minNextEnd)-sp.length+sp.slide-1)/sp.slide)
		switch {
		case newest < oldest || newest <= hi:
		case oldest <= hi+1:
			hi = newest
		default:
			flush()
			lo, hi = oldest, newest
		}
	}
	flush()
}

// evictPanes drops ring panes no live window can ever touch again: panes
// ending at or before both the update horizon (watermark - lateness -
// longest member window) and every member's next unemitted window start.
// While a member is still draining the whole ring is retained — its flip
// point is not yet known.
func (fl *Fleet[V, A, Out]) evictPanes(g *group[A]) {
	if g.base < 0 || g.tree.Len() == 0 {
		return
	}
	wm := fl.ag.Watermark()
	if wm == stream.MinTime {
		return
	}
	horizon := wm - fl.opts.Lateness - g.maxLen
	for _, sp := range g.specs {
		if sp.mode != modeFactored {
			return
		}
		if ns := sp.nextEnd() - sp.length; ns < horizon {
			horizon = ns
		}
	}
	if horizon <= 0 {
		return
	}
	k := horizon/g.factor - g.base
	if k <= 0 {
		return
	}
	if n := int64(g.tree.Len()); k > n {
		k = n
	}
	g.tree.RemoveFront(int(k))
	g.base += k
}

// refreshSchedule recomputes the cached wake positions and the physical
// gauge. A factored spec whose next window is wholly after the observed
// stream is parked on MaxSeen advancement instead of the watermark,
// mirroring the periodic trigger's empty-window postponement.
func (fl *Fleet[V, A, Out]) refreshSchedule() {
	wake, park := stream.MaxTime, stream.MaxTime
	maxSeen := fl.ag.View().MaxSeenTime()
	for _, g := range fl.groups {
		for _, sp := range g.specs {
			if sp.mode != modeFactored {
				continue
			}
			e := sp.nextEnd()
			if maxSeen != stream.MinTime && e-1 <= maxSeen+sp.length {
				if w := e - 1; w < wake {
					wake = w
				}
			} else if w := e - 1 - sp.length; w < park {
				park = w
			}
		}
	}
	fl.wake, fl.parkWake = wake, park
	fl.m.physical.Set(int64(fl.physical()))
}

package fleet

import (
	"scotty/internal/core"
	"scotty/internal/stream"
)

// ProcessElement ingests one event and returns every logical-query result it
// produced. The returned slice is reused across calls.
func (fl *Fleet[V, A, Out]) ProcessElement(e stream.Event[V]) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessElement(e))
	fl.pump()
	return fl.results
}

// ProcessWatermark ingests a low watermark, triggering completed windows
// across the fleet.
func (fl *Fleet[V, A, Out]) ProcessWatermark(wm int64) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessWatermark(wm))
	fl.pump()
	return fl.results
}

// ProcessBatch ingests a run of stream items through the core's batched fast
// path. Factored completions are appended once at the end of the batch, so
// within the returned slice a logical query's update emissions may precede
// completions that an unbatched run would have interleaved; final per-window
// values are identical either way.
func (fl *Fleet[V, A, Out]) ProcessBatch(items []stream.Item[V]) []core.Result[Out] {
	fl.planIfDue()
	fl.results = fl.results[:0]
	fl.ingest(fl.ag.ProcessBatch(items))
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
			out := *r
			out.Query = sb.id
			fl.results = append(fl.results, out)
		}
	}
}

// pump advances the factored emission frontier. The common case — nothing
// factored is due — is two comparisons against cached wake positions.
func (fl *Fleet[V, A, Out]) pump() {
	if fl.nDraining > 0 {
		fl.checkFlips()
	}
	wm := fl.ag.Watermark()
	maxSeen := fl.ag.View().MaxSeenTime()
	if wm < fl.wake && maxSeen < fl.parkWake {
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
			hi := wm
			if cap := maxSeen + sp.length; hi > cap {
				hi = cap
			}
			for sp.nextEnd-1 <= hi {
				fl.emitFactored(g, sp, sp.nextEnd-sp.length, sp.nextEnd, false)
				sp.nextEnd += sp.slide
			}
		}
		fl.evictPanes(g)
	}
	fl.refreshSchedule()
}

// checkFlips promotes draining specs whose ring coverage has caught up. A
// flip adds a factored spec the cached wake positions don't yet cover, so the
// schedule is refreshed before pump consults it.
func (fl *Fleet[V, A, Out]) checkFlips() {
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
// missing from the ring are provably empty, see paneRange). The physical
// query has emitted windows strictly in order up to lastEnd, so the factored
// cursor resumes at exactly the next one.
func (fl *Fleet[V, A, Out]) maybeFlip(g *group[A], sp *spec[A]) {
	if g.base < 0 {
		return
	}
	next := sp.resumeEnd()
	if g.base*g.factor > next-sp.length {
		return
	}
	fl.dropPhys(sp)
	sp.mode = modeFactored
	fl.nDraining--
	sp.nextEnd = next
	fl.m.physical.Set(int64(fl.physical()))
}

// emitFactored answers one window of a factored spec from the pane ring and
// fans the result out to the spec's subscribers. The slice-touch savings —
// what a direct emission would have folded minus the ring combines actually
// spent — feed the slice_touches_saved_total counter.
func (fl *Fleet[V, A, Out]) emitFactored(g *group[A], sp *spec[A], s, e int64, update bool) {
	c0 := g.tree.Combines()
	p := fl.paneRange(g, s, e)
	if saved := sp.directFold - (g.tree.Combines() - c0); saved > 0 {
		fl.m.touchesSaved.Add(saved)
	}
	fl.m.rewriteHits.Inc()
	v := fl.f.Lower(p.a)
	for _, sb := range sp.subs {
		if e < sb.floor {
			continue // subscriber registered after this window
		}
		fl.results = append(fl.results, core.Result[Out]{
			Query: sb.id, Measure: stream.Time,
			Start: s, End: e, Value: v, N: p.n, Update: update,
		})
	}
}

// paneRange folds the panes covering [s, e). Window edges of factored specs
// are multiples of the factor, so the span maps exactly onto ring leaves.
// Panes missing beyond the ring's tail contain no tuples — the factor
// trigger's MaxSeen cap is the only thing that postpones a due pane, and it
// only postpones empty ones — so clamping to the ring is exact.
func (fl *Fleet[V, A, Out]) paneRange(g *group[A], s, e int64) pane[A] {
	ident := pane[A]{a: fl.f.Identity()}
	if g.base < 0 {
		return ident
	}
	lo := s/g.factor - g.base
	hi := e/g.factor - g.base // exclusive leaf bound
	if n := int64(g.tree.Len()); hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return ident
	}
	return g.tree.Query(int(lo), int(hi))
}

// tapFor builds the partial-aggregate consumer for a factor group's physical
// query. Completions append panes to the ring (the factor trigger emits
// strictly in order, so pushes are contiguous); late-tuple updates overwrite
// the pane in place and re-emit every already-emitted member window covering
// it, in the same order the unshared per-query path would have used.
func (fl *Fleet[V, A, Out]) tapFor(g *group[A]) func(s, e int64, a A, n int64, update bool) {
	return func(s, e int64, a A, n int64, update bool) {
		idx := s / g.factor
		if !update {
			if g.base < 0 {
				g.base = idx
			}
			g.tree.Push(pane[A]{a: a, n: n})
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
		fl.reEmitCovering(g, s, e)
	}
}

// reEmitCovering re-emits every already-emitted factored window containing
// the updated pane [ps, pe), mirroring the unshared core's WindowsTouched
// order: per spec, containing windows in descending start order, update
// emissions only for windows the cursor has already passed (the regular
// trigger covers the rest). Draining members are skipped — their own physical
// query emits their updates.
func (fl *Fleet[V, A, Out]) reEmitCovering(g *group[A], ps, pe int64) {
	for _, sp := range g.specs {
		if sp.mode != modeFactored {
			continue
		}
		for k := ps / sp.slide; k >= 0; k-- {
			s := k * sp.slide
			e := s + sp.length
			if e < pe {
				break // no earlier window reaches the pane either
			}
			if e < sp.nextEnd && e >= sp.minNextEnd {
				// Only windows the cursor has passed since the spec's own
				// registration floor were ever announced.
				fl.emitFactored(g, sp, s, e, true)
			}
		}
	}
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
		if ns := sp.nextEnd - sp.length; ns < horizon {
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
			if maxSeen != stream.MinTime && sp.nextEnd-1 <= maxSeen+sp.length {
				if w := sp.nextEnd - 1; w < wake {
					wake = w
				}
			} else if w := sp.nextEnd - 1 - sp.length; w < park {
				park = w
			}
		}
	}
	fl.wake, fl.parkWake = wake, park
	fl.m.physical.Set(int64(fl.physical()))
}

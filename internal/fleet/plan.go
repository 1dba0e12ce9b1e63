package fleet

import (
	"math"
	"sort"
	"time"

	"scotty/internal/fat"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// canon is the canonical identity of a window definition, used for
// exact-duplicate detection. Parametric definitions (periodic time/count
// windows via Params, sessions via Gap) canonicalize structurally; anything
// else — punctuation windows with arbitrary predicates, custom definitions —
// gets a unique opaque identity and never dedupes.
type canon struct {
	kind    byte
	measure stream.Measure
	a, b    int64 // length/slide for periodic, gap for session
	opaque  int   // unique sequence number for canonOpaque; 0 otherwise
}

const (
	canonPeriodic = byte(iota)
	canonSession
	canonOpaque
)

func (fl *Fleet[V, A, Out]) canonOf(def window.Definition) canon {
	if p, ok := def.(interface{ Params() (length, slide int64) }); ok {
		l, s := p.Params()
		return canon{kind: canonPeriodic, measure: def.Measure(), a: l, b: s}
	}
	if window.IsSession(def) {
		if s, ok := def.(interface{ Gap() int64 }); ok {
			return canon{kind: canonSession, measure: def.Measure(), a: s.Gap()}
		}
	}
	fl.nOpaque++
	return canon{kind: canonOpaque, measure: def.Measure(), opaque: fl.nOpaque}
}

// ------------------------------------------------------------- cost model ---
//
// Costs are slice/pane touches per millisecond of stream time, the currency
// the slicing core actually spends at emission (docs/SHARING.md):
//
//	direct(q)       = (length_q / g) / slide_q
//	factored(C, f)  = 1/g + ringPush/f + Σ_q (log2(length_q/f) + 1) / slide_q
//
// where g is the slice granularity if every periodic query ran direct (the
// gcd of every query's gcd(length, slide)) and f the cluster's factor (the
// gcd of its members' gcd(length, slide)). A direct emission folds one
// partial per slice in the window; a factored emission folds O(log) FlatFAT
// ring nodes. The factor window itself still touches every slice once while
// building panes (the 1/g term) and pays a ring push per pane — which is why
// a lone tumbling query is never rewritten onto itself, while a lone sliding
// query with many overlapping emissions already profits.
const ringPushCost = 2.0

// tieEps is the margin a saving must clear: a spec or cluster whose factored
// cost is not strictly below its direct cost stays direct.
const tieEps = 1e-12

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// setPeriodic records a periodic window's planning parameters; the log2 the
// cost model needs of it is taken here, once, not on every plan.
func (sp *spec[A]) setPeriodic(length, slide int64) {
	sp.length, sp.slide = length, slide
	sp.own = gcd(length, slide)
	sp.lg = math.Log2(float64(length))
}

// cluster is a candidate factor group during planning. Its cost is priced
// from three sums over the members, so a trial merge is three additions:
// d = Σ length/slide, s = Σ 1/slide, l = Σ log2(length)/slide.
type cluster[A any] struct {
	f       int64
	lgf     float64 // log2(f)
	d, s, l float64
	specs   []*spec[A]

	best     *cluster[A] // the finer cluster merging into saves most, and
	bestGain float64     // what it saves; nil when no merge saves anything
}

// gain is what factoring c saves over running its members direct at slice
// granularity g, zero when that is not strictly a saving:
// direct = d/g, factored = 1/g + ringPush/f + l − log2(f)·s + s.
func (c *cluster[A]) gain(g float64) float64 {
	if v := (c.d-1)/g - ringPushCost/float64(c.f) - c.l + (c.lgf-1)*c.s; v > tieEps {
		return v
	}
	return 0
}

// pays reports whether sp's own emissions get cheaper at c's factor. A spec
// that only ties stays out.
func (c *cluster[A]) pays(sp *spec[A]) bool {
	return float64(sp.directFold)-(sp.lg-c.lgf)-1 > tieEps*float64(sp.slide)
}

// assignFactors sets every spec's want — the factor of the factor window that
// should serve it, 0 for direct — and returns how many trial merges it priced.
//
// Specs are bucketed by their own gcd(length, slide): members of one bucket
// share a factor, and the factor window's upkeep (1/g + ringPush/f) is paid
// once whoever joins, so a spec belongs in its bucket exactly when its own
// emissions get cheaper. Buckets then merge down the divisor order of their
// factors, a coarse bucket into a finer one whose factor divides its own:
// the coarse members fold log2(f/f') more ring nodes per emission, and
// either a factor window is saved or the fine bucket, not worth its upkeep
// alone, becomes so. A pair whose factors do not divide would be served at a
// third, finer factor and is not a candidate.
func assignFactors[A any](specs []*spec[A]) (evals int) {
	// Planning slice granularity: what the slicer's slices would look like
	// if every periodic query ran direct. Sessions and opaque windows also
	// cut slices, but at data-dependent positions the model cannot price.
	var gAll int64
	for _, sp := range specs {
		if sp.eligible {
			gAll = gcd(gAll, sp.own)
		}
	}
	g := float64(gAll)

	var clusters []*cluster[A]
	byF := make(map[int64]*cluster[A])
	for _, sp := range specs {
		sp.want = 0
		if !sp.eligible {
			continue
		}
		sp.directFold = sp.length / gAll
		c := byF[sp.own]
		if c == nil {
			c = &cluster[A]{f: sp.own, lgf: math.Log2(float64(sp.own))}
			byF[sp.own] = c
			clusters = append(clusters, c)
		}
		evals++
		if c.pays(sp) {
			sl := float64(sp.slide)
			c.d, c.s, c.l = c.d+float64(sp.length)/sl, c.s+1/sl, c.l+sp.lg/sl
			c.specs = append(c.specs, sp)
		}
	}

	sort.Slice(clusters, func(i, j int) bool { return clusters[i].f > clusters[j].f })
	// Best delta first. Each cluster remembers the finer cluster (t.f divides
	// c.f) that merging into saves most; a merge changes the two clusters it
	// touches and nothing else, and a cluster that grew only got more
	// attractive, so a round re-prices one row per touched cluster and one
	// pair per cluster coarser than the target.
	try := func(c, t *cluster[A]) {
		if c.f%t.f != 0 || len(c.specs) == 0 {
			return
		}
		evals++
		m := cluster[A]{f: t.f, lgf: t.lgf, d: t.d + c.d, s: t.s + c.s, l: t.l + c.l}
		if d := m.gain(g) - c.gain(g) - t.gain(g); d > c.bestGain {
			c.best, c.bestGain = t, d
		}
	}
	scan := func(i int) {
		c := clusters[i]
		c.best, c.bestGain = nil, tieEps
		for _, t := range clusters[i+1:] {
			try(c, t)
		}
	}
	for i := range clusters {
		scan(i)
	}
	for {
		var from *cluster[A]
		for _, c := range clusters {
			if c.best != nil && (from == nil || c.bestGain > from.bestGain) {
				from = c
			}
		}
		if from == nil {
			break
		}
		to := from.best
		to.d, to.s, to.l = to.d+from.d, to.s+from.s, to.l+from.l
		to.specs = append(to.specs, from.specs...)
		*from = cluster[A]{f: from.f, lgf: from.lgf}
		for i, c := range clusters {
			if c == from || c == to || c.best == from {
				scan(i)
			} else if c.f > to.f {
				try(c, to)
			}
		}
	}
	for _, c := range clusters {
		if c.gain(g) > 0 {
			for _, sp := range c.specs {
				if c.pays(sp) {
					sp.want = c.f
				}
			}
		}
	}
	return evals
}

// subscribeFloor computes the lowest window end a duplicate subscriber may
// receive, replaying exactly the silent drains core.AddQuery would apply to a
// fresh identical registration (completed-before-watermark, plus — without
// stored tuples — everything overlapping already-ingested data, both capped
// at MaxSeen+length like window/periodic.go Trigger).
func (fl *Fleet[V, A, Out]) subscribeFloor(sp *spec[A]) int64 {
	if fl.virgin() {
		return stream.MinTime
	}
	view := fl.ag.View()
	wm := fl.ag.Watermark()
	switch sp.canon.kind {
	case canonPeriodic:
		length, slide := sp.canon.a, sp.canon.b
		if sp.canon.measure == stream.Time {
			hi := wm
			maxSeen := view.MaxSeenTime()
			if maxSeen != stream.MinTime && !fl.ag.StoresTuples() {
				if x := maxSeen + length - 1; x > hi {
					hi = x
				}
			}
			if cap := maxSeen + length; hi > cap {
				hi = cap
			}
			end := length
			if end-1 <= hi {
				k := (hi+1-length)/slide + 1
				end = length + k*slide
				for end-1 <= hi {
					end += slide
				}
				for end-slide >= length && end-slide-1 > hi {
					end -= slide
				}
			}
			return end
		}
		end := length
		for end <= view.TotalCount() && view.TimeAtCount(end) <= wm {
			end += slide
		}
		return end
	case canonSession:
		if wm == stream.MinTime {
			return stream.MinTime
		}
		return wm + 1
	}
	return stream.MinTime // opaque definitions never dedup
}

// planIfDue runs the plan if the spec set changed since the last one.
// AddQuery and RemoveQuery only mark it dirty; Process*, Snapshot, Plan and
// String call this first, so a burst of registrations costs one plan and the
// tuple path one predictable branch.
func (fl *Fleet[V, A, Out]) planIfDue() {
	if fl.dirty {
		fl.plan()
	}
}

// physical counts the live physical queries on the core: one per direct or
// draining spec, one per factor window.
func (fl *Fleet[V, A, Out]) physical() int { return len(fl.byPhys) + len(fl.groups) }

// plan recomputes the physical plan for the current spec set and reconciles
// the running state towards it. The clock is read here and nowhere on the
// tuple path.
func (fl *Fleet[V, A, Out]) plan() {
	start := time.Now()
	fl.dirty = false
	live := fl.specs[:0]
	for _, sp := range fl.specs {
		if len(sp.subs) > 0 { // RemoveQuery leaves released specs in place
			live = append(live, sp)
		}
	}
	clear(fl.specs[len(live):])
	fl.specs = live
	fl.planEvals += assignFactors(fl.specs)
	fl.reconcile()
	fl.refreshSchedule()
	fl.m.planRuns.Inc()
	fl.m.planNS.Add(int64(time.Since(start)))
}

// reconcile moves the running fleet towards the planned factors (spec.want):
// specs leave groups they no longer belong to (resuming their direct physical
// query), groups nobody wants dissolve, missing groups are created, and newly
// covered specs attach — instantly on a virgin stream, via a draining
// hand-over mid-stream (see maybeFlip).
func (fl *Fleet[V, A, Out]) reconcile() {
	// 1. Drop released specs, detach members whose planned factor differs,
	// dissolve groups left without demand.
	groups := fl.groups[:0]
	for _, g := range fl.groups {
		keep := g.specs[:0]
		g.maxLen = 0
		for _, sp := range g.specs {
			if len(sp.subs) == 0 {
				continue
			}
			if sp.want != g.factor {
				fl.detach(sp)
				continue
			}
			keep = append(keep, sp)
			g.maxLen = max(g.maxLen, sp.length)
		}
		clear(g.specs[len(keep):])
		g.specs = keep
		if len(keep) == 0 {
			fl.ag.RemoveQuery(g.physID)
			delete(fl.byFactor, g.factor)
			continue
		}
		groups = append(groups, g)
	}
	clear(fl.groups[len(groups):])
	fl.groups = groups
	// 2. Create missing groups and attach newly covered specs.
	for _, sp := range fl.specs {
		if sp.want == 0 || sp.grp != nil {
			continue // direct, or kept by step 1: already on its planned factor
		}
		if g := fl.groupFor(sp.want); g != nil { // nil: the core rejected the factor query; the spec stays direct
			fl.attach(sp, g)
		}
	}
}

func (fl *Fleet[V, A, Out]) groupFor(f int64) *group[A] {
	if g := fl.byFactor[f]; g != nil {
		return g
	}
	def := window.Tumbling(stream.Time, f)
	physID, err := fl.ag.AddQuery(def)
	if err != nil {
		return nil
	}
	g := &group[A]{factor: f, physID: physID, def: def, base: -1}
	g.tree = fat.New(func(x, y pane[A]) pane[A] {
		return pane[A]{a: fl.f.Combine(x.a, y.a), n: x.n + y.n}
	}, pane[A]{a: fl.f.Identity()})
	fl.ag.SetPartialTap(physID, fl.tapFor(g))
	fl.groups = append(fl.groups, g)
	fl.byFactor[f] = g
	return g
}

// detach returns a grouped spec to direct execution (reconcile drops it from
// the group's member list). A draining spec still owns its physical query; a
// factored spec re-registers its original — stateful — definition, whose
// trigger cursor the pump advanced under exactly the completion rule the core
// uses (window/periodic.go Trigger): the direct query resumes precisely after
// the last factored emission, with no duplicates and no holes.
func (fl *Fleet[V, A, Out]) detach(sp *spec[A]) {
	f := sp.grp.factor
	sp.grp = nil
	switch sp.mode {
	case modeDraining:
		fl.nDraining--
	case modeFactored:
		// The definition's trigger cursor sits exactly after the last
		// factored emission, and its edges are factor multiples the group
		// kept sliced — AddQueryResumed skips AddQuery's drains.
		id, err := fl.ag.AddQueryResumed(sp.def, sp.minNextEnd)
		if err != nil {
			// Re-registering a previously accepted definition cannot mix
			// measures any worse than the original registration did.
			panic("fleet: cannot re-register window: " + err.Error())
		}
		sp.minNextEnd = sp.next * f
		sp.physID = id
		fl.byPhys[id] = sp
	}
	sp.mode = modeDirect
}

// attach routes a direct spec onto a factor group. On a virgin stream the
// hand-over is immediate (the ring will cover everything from time zero);
// mid-stream the spec keeps its physical query and drains until the ring
// covers its next window (maybeFlip).
func (fl *Fleet[V, A, Out]) attach(sp *spec[A], g *group[A]) {
	sp.join(g)
	g.specs = append(g.specs, sp)
	g.maxLen = max(g.maxLen, sp.length)
	if fl.virgin() {
		fl.dropPhys(sp)
		sp.mode = modeFactored
		sp.next = sp.resumeEnd() / g.factor
		sp.lastEnd = 0
		return
	}
	sp.mode = modeDraining
	fl.nDraining++
}

// virgin reports whether the fleet has seen neither a tuple nor a watermark,
// so plan changes need no draining hand-over.
func (fl *Fleet[V, A, Out]) virgin() bool {
	return fl.ag.Watermark() == stream.MinTime && fl.ag.View().MaxSeenTime() == stream.MinTime
}

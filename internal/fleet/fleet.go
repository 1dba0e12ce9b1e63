// Package fleet is the cost-based query-rewrite and sharing layer between the
// query front end and the slicing core (docs/SHARING.md). It serves large
// fleets of correlated window queries — "near-duplicate dashboards" — over one
// core.Aggregator at sublinear cost in the query count:
//
//  1. Logical queries are canonicalized on AddQuery; exact duplicates share
//     one physical query, and results fan out to every subscriber (O(1) extra
//     state per repeated registration).
//  2. A factoring optimizer picks factor windows by a slice-touch cost model:
//     sliding/tumbling time windows whose range and slide are multiples of a
//     common factor f are rewritten to fold the factor window's per-pane
//     partials (a FlatFAT ring over tumbling-f panes) instead of walking the
//     slice store per query — the Factor Windows rewrite on top of general
//     stream slicing.
//  3. Queries can be added and removed at runtime; the whole layer is
//     checkpoint-safe (Snapshot/Restore embed the core snapshot), and obs
//     gauges/counters report physical vs logical queries, rewrite hits, and
//     slice touches saved.
//
// Everything the core guarantees — out-of-order handling within the allowed
// lateness, update emissions, the eager/DABA stores — is preserved: rewritten
// fleets are result-identical per query to unshared fleets (the equivalence
// oracle in this package's tests enforces that across stores and stream
// orders).
package fleet

import (
	"fmt"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/fat"
	"scotty/internal/obs"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Options configure a Fleet. The embedded core.Options configure the backing
// aggregator (order, lateness, store kind, metrics registry).
type Options struct {
	core.Options
	// NoRewrite disables the cost-based factoring optimizer: exact-duplicate
	// dedup still applies, but every distinct window runs as its own physical
	// query. Exists for A/B measurement and as an escape hatch.
	NoRewrite bool
}

// mode is a spec's execution mode.
type mode uint8

const (
	// modeDirect: the spec runs as a physical query on the core aggregator.
	modeDirect mode = iota
	// modeDraining: the optimizer wants the spec factored, but the factor
	// ring does not yet cover a full window length. The physical query keeps
	// serving emissions while panes accumulate; the spec flips to factored
	// once coverage reaches its next window start.
	modeDraining
	// modeFactored: emissions are answered from the factor group's pane
	// ring; no physical query exists for the spec.
	modeFactored
)

// sub is one logical subscriber of a spec. floor suppresses fan-out of
// results ending before it: a duplicate registered mid-stream must behave
// like a fresh unshared registration, which silently drains windows predating
// it (core.AddQuery), even though the shared physical query keeps emitting
// them for older subscribers.
type sub struct {
	id    int
	floor int64
}

// spec is one physical window specification: a canonical window definition
// plus every logical query subscribed to it.
type spec[A any] struct {
	canon canon
	def   window.Definition
	subs  []sub // subscribers, registration order

	// Periodic-time parameters (canon.kind == canonPeriodic, measure Time):
	// own is gcd(length, slide), lg is log2(length), want the factor the last
	// plan chose for the spec (0 = direct).
	eligible      bool
	length, slide int64
	own, want     int64
	lg            float64

	mode    mode
	physID  int // core query id while direct/draining; -1 when factored
	grp     *group[A]
	next    int64 // next window end the factored path emits, in panes of grp
	lastEnd int64 // highest non-update end emitted while direct/draining
	// minNextEnd mirrors the direct physical query's trigger cursor as of its
	// last (re-)registration: core.AddQuery silently drains windows completed
	// before registration — and, without stored tuples, windows overlapping
	// pre-registration data — so a factored hand-over that has observed no
	// direct emission yet (lastEnd == 0) must resume here, not at length.
	minNextEnd int64

	// directFold is the cost model's slice-touch estimate for one direct
	// emission of this spec (length / planned slice granularity); the
	// slice_touches_saved_total counter is measured against it.
	directFold int64

	// lenP and slideP are length and slide in panes of grp's factor, set
	// when the spec joins the group: emission walks the ring by adding them.
	lenP, slideP int64
}

// nextEnd is the next window end the factored path emits, in time.
func (sp *spec[A]) nextEnd() int64 { return sp.next * sp.grp.factor }

// resumeEnd is the window end at which factored emission resumes on a
// hand-over: after the last direct emission when one was observed, else at
// the physical query's registration-time trigger cursor.
func (sp *spec[A]) resumeEnd() int64 {
	next := sp.minNextEnd
	if next < sp.length {
		next = sp.length
	}
	if sp.lastEnd > 0 && sp.lastEnd+sp.slide > next {
		next = sp.lastEnd + sp.slide
	}
	return next
}

// join puts the spec on factor group g, its length and slide counted in g's
// panes (both are multiples of g's factor).
func (sp *spec[A]) join(g *group[A]) {
	sp.grp = g
	sp.lenP, sp.slideP = sp.length/g.factor, sp.slide/g.factor
}

// pane is one factor-window partial: the partial aggregate and tuple count of
// one [k*f, (k+1)*f) tumbling pane.
type pane[A any] struct {
	a A
	n int64
}

// group is one factor window: a physical tumbling query of length factor whose
// per-pane partials feed a FlatFAT ring shared by all member specs.
type group[A any] struct {
	factor int64
	physID int
	def    window.Definition
	tree   *fat.Tree[pane[A]]
	base   int64 // pane index (start/factor) of tree leaf 0; -1 before the first pane
	specs  []*spec[A]
	maxLen int64 // longest member window, bounds ring retention
	// dirty holds the indices of the panes written since the last reEmit
	// (process.go); markDirty keeps repeats bounded.
	dirty []int64
}

// due is one member's share of an emission pass (a drain of one group or one
// reEmit): n windows ending at pane end, end+step, …, emitted in
// that order; their folds sit at Fleet.folded[at:at+n]. end and step count
// panes of the group's factor.
type due[A any] struct {
	sp        *spec[A]
	end, step int64
	n, at     int
}

// suffix is the longest window folded so far at one window end of an emission
// pass: length 0 and the identity pane until a window ends there. length
// counts panes.
type suffix[A any] struct {
	length int64
	p      pane[A]
}

// Fleet hosts a dynamic fleet of logical window queries over one slicing
// aggregator, sharing physical work between correlated queries. It exposes the
// same processing surface as core.Aggregator (ProcessElement /
// ProcessWatermark / ProcessBatch returning reused result slices, Snapshot /
// Restore) with results tagged by logical query ids.
type Fleet[V, A, Out any] struct {
	f    aggregate.Function[V, A, Out]
	opts Options
	ag   *core.Aggregator[V, A, Out]

	logical map[int]*spec[A] // logical id -> spec
	nextID  int
	nOpaque int // sequence for non-canonicalizable definitions

	// specs holds the distinct specs in first-registration order; groups the
	// factor windows in creation order. The core hands out physical ids in
	// ascending order, so its registration order — which a snapshot must
	// reproduce — is the sorted ids of byPhys and groups, and no list mirrors
	// it. A released spec (no subscribers) stays in specs and in its group's
	// member list until the next plan compacts both.
	specs    []*spec[A]
	byCanon  map[canon]*spec[A]
	byPhys   map[int]*spec[A] // core id -> owning spec (direct/draining)
	groups   []*group[A]
	byFactor map[int64]*group[A]

	// dirty: the distinct-spec set changed since the last plan. planEvals
	// counts the trial merges the planner has priced (the scaling tests
	// assert on it).
	dirty     bool
	planEvals int

	results []core.Result[Out]

	// Emission scratch, rebuilt by every emission pass and meaningless
	// between passes (process.go emitDue): the members with windows to emit
	// in emission order, their indices in ascending window length, the folded
	// windows, and the suffix each window end has reached.
	due    []due[A]
	byLen  []int
	folded []pane[A]
	memo   []suffix[A]

	// Emission scheduling for factored specs: wake is the lowest watermark
	// at which any factored spec can emit; parkWake is the lowest MaxSeen
	// at which a spec currently postponed by the empty-window cap (see
	// window/periodic.go Trigger) becomes emittable. Both are MaxTime when
	// nothing is factored, so the per-call pump check is two comparisons.
	wake     int64
	parkWake int64
	// pumped is the watermark the last pump saw. Only a call that moved it
	// drains: the core's factor query, like any time query on an unordered
	// stream, triggers only on watermarks, so a factored window a tuple
	// un-parks waits for the next watermark too — by then its panes are in
	// the ring and late tuples in them reach it as pane updates.
	pumped int64

	nDraining int

	reg *obs.Registry
	m   *metricsSet
}

// New creates an empty fleet for the given aggregation function. Queries are
// registered with AddQuery; the physical plan is recomputed on demand — once
// before the next Process*, Snapshot, Plan or String after the query set
// changed, however many registrations that was.
func New[V, A, Out any](f aggregate.Function[V, A, Out], opts Options) *Fleet[V, A, Out] {
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	fl := &Fleet[V, A, Out]{
		f:        f,
		opts:     opts,
		ag:       core.New(f, opts.Options),
		logical:  make(map[int]*spec[A]),
		byCanon:  make(map[canon]*spec[A]),
		byPhys:   make(map[int]*spec[A]),
		byFactor: make(map[int64]*group[A]),
		wake:     stream.MaxTime,
		parkWake: stream.MaxTime,
		pumped:   stream.MinTime,
		reg:      opts.Metrics,
		m:        newMetricsSet(opts.Metrics),
	}
	return fl
}

// AddQuery registers a logical window query and returns its id. An exact
// duplicate of an existing registration shares that registration's physical
// query (O(1) extra state); a new distinct window makes the next plan re-run
// the factoring optimizer, which may rewrite it — and existing queries — onto
// factor windows.
func (fl *Fleet[V, A, Out]) AddQuery(def window.Definition) (int, error) {
	c := fl.canonOf(def)
	if sp, ok := fl.byCanon[c]; ok {
		id := fl.nextID
		fl.nextID++
		sp.subs = append(sp.subs, sub{id: id, floor: fl.subscribeFloor(sp)})
		fl.logical[id] = sp
		fl.m.logical.Add(1)
		return id, nil
	}
	sp := &spec[A]{canon: c, def: def, mode: modeDirect, physID: -1}
	if c.kind == canonPeriodic && c.measure == stream.Time {
		sp.eligible = !fl.opts.NoRewrite
		sp.setPeriodic(c.a, c.b)
	}
	physID, err := fl.ag.AddQuery(def)
	if err != nil {
		return 0, err
	}
	if sp.eligible {
		// The registration may have silently drained the definition's
		// trigger cursor past pre-registration windows; capture where the
		// direct query actually resumes (NextTrigger = next end - 1).
		if cf, ok := def.(window.ContextFree); ok {
			sp.minNextEnd = cf.NextTrigger(fl.ag.View()) + 1
		}
	}
	sp.physID = physID
	fl.byPhys[physID] = sp
	fl.byCanon[c] = sp
	fl.specs = append(fl.specs, sp)

	id := fl.nextID
	fl.nextID++
	sp.subs = append(sp.subs, sub{id: id, floor: stream.MinTime})
	fl.logical[id] = sp
	fl.m.logical.Add(1)
	fl.dirty = true
	return id, nil
}

// MustAddQuery is AddQuery for static configurations that cannot fail.
func (fl *Fleet[V, A, Out]) MustAddQuery(def window.Definition) int {
	id, err := fl.AddQuery(def)
	if err != nil {
		panic(err)
	}
	return id
}

// RemoveQuery unregisters a logical query. The last subscriber of a physical
// spec releases it — its trigger state, its slice edges (merged away by the
// core), and, when its factor group empties, the factor window itself — and
// the next plan re-runs the optimizer over the remaining fleet.
func (fl *Fleet[V, A, Out]) RemoveQuery(id int) {
	sp, ok := fl.logical[id]
	if !ok {
		return
	}
	delete(fl.logical, id)
	for i, s := range sp.subs {
		if s.id == id {
			sp.subs = append(sp.subs[:i], sp.subs[i+1:]...)
			break
		}
	}
	fl.m.logical.Add(-1)
	if len(sp.subs) > 0 {
		return
	}
	// Last subscriber gone: release the spec. The plan this makes due drops
	// it from specs and from its group.
	fl.dropPhys(sp)
	if sp.mode == modeDraining {
		fl.nDraining--
	}
	delete(fl.byCanon, sp.canon)
	fl.dirty = true
}

// dropPhys removes a spec's physical query, if it has one, from the core.
func (fl *Fleet[V, A, Out]) dropPhys(sp *spec[A]) {
	if sp.physID >= 0 {
		fl.ag.RemoveQuery(sp.physID)
		delete(fl.byPhys, sp.physID)
		sp.physID = -1
	}
}

// ------------------------------------------------------------- accessors ---

// Registry returns the metrics registry the fleet (and its core aggregator)
// publish into.
func (fl *Fleet[V, A, Out]) Registry() *obs.Registry { return fl.reg }

// Aggregator exposes the backing core operator (tests, debug endpoints).
func (fl *Fleet[V, A, Out]) Aggregator() *core.Aggregator[V, A, Out] { return fl.ag }

// SliceSnapshot delegates to the core aggregator's slice-layout snapshot.
func (fl *Fleet[V, A, Out]) SliceSnapshot() []core.SliceInfo { return fl.ag.SliceSnapshot() }

// PlanInfo summarizes the current physical plan (tests, docs, debugging).
type PlanInfo struct {
	// Logical and Physical count registered logical queries and live
	// physical queries on the core (including factor windows).
	Logical, Physical int
	// Specs counts distinct physical window specifications; Factored those
	// currently served from a factor ring, Draining those on the way there.
	Specs, Factored, Draining int
	// Factors lists the active factor-window lengths.
	Factors []int64
	// RewriteHits and TouchesSaved mirror the registry counters.
	RewriteHits, TouchesSaved int64
}

// Plan reports the current physical plan.
func (fl *Fleet[V, A, Out]) Plan() PlanInfo {
	fl.planIfDue()
	info := PlanInfo{
		Logical:      len(fl.logical),
		Physical:     fl.physical(),
		Specs:        len(fl.specs),
		Draining:     fl.nDraining,
		RewriteHits:  fl.m.rewriteHits.Value(),
		TouchesSaved: fl.m.touchesSaved.Value(),
	}
	for _, sp := range fl.specs {
		if sp.mode == modeFactored {
			info.Factored++
		}
	}
	for _, g := range fl.groups {
		info.Factors = append(info.Factors, g.factor)
	}
	return info
}

// String describes the fleet for diagnostics; plan is the time spent planning
// so far.
func (fl *Fleet[V, A, Out]) String() string {
	p := fl.Plan()
	return fmt.Sprintf("fleet(logical=%d physical=%d specs=%d factored=%d groups=%d plan=%v)",
		p.Logical, p.Physical, p.Specs, p.Factored, len(p.Factors), time.Duration(fl.m.planNS.Value()))
}

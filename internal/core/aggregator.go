package core

import (
	"fmt"
	"sort"

	"scotty/internal/aggregate"
	"scotty/internal/obs"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Options configure an Aggregator.
type Options struct {
	// Ordered declares the input stream in-order (every tuple's time is
	// >= all previous times). In-order mode emits results directly,
	// treating each tuple as a watermark (§5.3 step 3), and never stores
	// tuples for context-free workloads.
	Ordered bool
	// Lateness is the allowed lateness (§2): how long after the watermark
	// out-of-order tuples are still folded in, producing update results.
	// Tuples later than this are dropped (counted in Stats).
	Lateness int64
	// Store selects the aggregation structure over the slice partials:
	// StoreLazy (fold at emission), StoreEager (FlatFAT tree), or
	// StoreDABA (per-query DABA-Lite rings with worst-case O(1) combines
	// per operation; requires Ordered, falls back to the lazy fold for
	// emissions the rings cannot serve).
	Store StoreKind
	// Metrics is the registry the operator's counters and gauges are
	// registered in (core_tuples_total, core_splits_total, core_slices,
	// core_watermark_lag_ms, ...). Nil creates a private registry,
	// reachable through Registry(). Sharing one registry across several
	// aggregators (e.g. the per-key operators of Keyed) aggregates the
	// counters across all of them.
	Metrics *obs.Registry
}

// Result is one window aggregate emitted by the operator.
type Result[Out any] struct {
	// Query identifies the query (the id returned by AddQuery).
	Query int
	// Measure is the axis of Start and End.
	Measure stream.Measure
	// Start and End delimit the window, half-open [Start, End).
	Start, End int64
	// Value is the final (lowered) aggregate.
	Value Out
	// N is the number of tuples aggregated.
	N int64
	// Update marks a correction of a previously emitted window (a late
	// tuple arrived within the allowed lateness, or a context change
	// reshaped an already-output window).
	Update bool
}

// Stats exposes operator counters for tests and the benchmark harness. It is
// a point-in-time view of the registry-backed metrics (see Options.Metrics);
// the live view of the same counters is the obs registry itself.
type Stats struct {
	Slices     int
	Splits     int64
	Merges     int64
	Recomputes int64
	Shifts     int64
	Dropped    int64
	Tuples     int64
}

type query[V any] struct {
	id  int
	def window.Definition
	cf  window.ContextFree
	ctx window.Context[V]
	// time and keep cache what reconfigure needs of the definition on every
	// registration change: whether its measure is time, and whether it alone
	// makes the operator store tuples (Fig 4).
	time, keep bool
	// tapped marks a query whose emissions are consumed as raw partial
	// aggregates by a registered tap (SetPartialTap) instead of being
	// lowered into Results. The tap itself lives in Aggregator.taps (it
	// closes over the partial type A, which query is not generic over).
	tapped bool
	// updFloor is the lowest window end this query may emit updates for. A
	// query registered mid-stream silently drains windows predating its
	// registration; out-of-order arrivals touching those windows must not
	// produce updates either — the query never announced them, and without
	// stored tuples their boundaries may not even be answerable.
	updFloor int64
	// seeded marks a floor raised by seedWatermark on a fresh operator, not
	// by a registration that drained older data: windows below it hold
	// nothing the operator cannot answer — they closed before its first
	// tuple — so a late tuple landing in one announces it instead of being
	// swallowed.
	seeded bool
}

// Aggregator is the general stream slicing window operator (Fig 3/7). It
// serves any number of concurrent queries over one keyed stream, sharing
// slices — and therefore partial aggregates — among all of them.
//
// The aggregator is generic over the payload type V, the partial-aggregate
// type A, and the final aggregate type Out of its aggregation function; all
// registered queries share the function, as in the paper's evaluation.
// Call ProcessElement for every tuple in arrival order and ProcessWatermark
// for every watermark; both return the window results they caused. The
// returned slice is reused across calls.
type Aggregator[V, A, Out any] struct {
	f    aggregate.Function[V, A, Out]
	opts Options
	st   *store[V, A, Out]

	queries []*query[V]
	// ctxQueries is the subset of queries with a context (context-aware
	// windows), precomputed in reconfigure so the per-tuple path does not
	// scan all queries just to skip the context-free ones.
	ctxQueries []*query[V]
	nextID     int

	// Workload-derived state (§5.1): re-evaluated on AddQuery/RemoveQuery.
	hasCFTime  bool
	hasCFCount bool
	hasCA      bool
	needRank   bool

	// Slicer caches (§5.3 step 1): the next upcoming window edge. Edge
	// positions are always taken relative to the open slice's actual
	// start, so context-driven splits can never leave the cache stale.
	cachedCFTimeEdge  int64
	cachedCFCountEdge int64
	dynamicTimeEdges  []int64 // future edges announced by contexts, ascending

	// Trigger wake caches (ordered mode): the minimal watermark / total
	// count at which any context-free query can emit. Context-aware
	// queries are polled per tuple (their ends move with the data).
	cfTriggerWakeTime  int64
	cfTriggerWakeCount int64

	// Watermark bookkeeping.
	currWM int64

	// taps holds the partial-aggregate consumers of tapped queries, keyed
	// by query id (see SetPartialTap). Emissions of a tapped query deliver
	// (start, end, partial, n, update) to the tap and append no Result.
	taps map[int]func(start, end int64, a A, n int64, update bool)

	// Registry-backed instrumentation (Options.Metrics). tuplesPublished
	// tracks how much of totalCount has been flushed to the shared tuples
	// counter (synced at watermark granularity to keep the per-element
	// path free of atomic operations).
	reg             *obs.Registry
	m               *metricsSet
	tuplesPublished int64

	results        []Result[Out]
	pendingUpdates []pendingUpdate
	evictCountdown int

	// dabaRings holds one DABA-Lite partial ring per eligible query when
	// Options.Store == StoreDABA (see daba.go); ordered by query
	// registration so snapshots are deterministic. dabaHits/dabaMisses
	// count emissions the rings served vs. fell back on (test/benchmark
	// introspection; not registry metrics).
	dabaRings  []*dabaRing[A]
	dabaHits   int64
	dabaMisses int64

	// Reusable window callbacks: window triggers and WindowsTouched take a
	// func(s, e int64) emitter, and binding it fresh per call would capture
	// the loop's query variable and allocate one closure per completed
	// window or per query a late tuple reaches. emitFn and touchFn are
	// allocated once at construction and route through triggerQ, which
	// trigger and processOutOfOrder set before each call (the aggregator is
	// single-threaded, so the hand-off cannot race).
	emitFn, touchFn func(s, e int64)
	triggerQ        *query[V]
}

type pendingUpdate struct {
	id   int
	meas stream.Measure
	span window.Span
}

// New creates an aggregator for the given aggregation function.
func New[V, A, Out any](f aggregate.Function[V, A, Out], opts Options) *Aggregator[V, A, Out] {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := newMetricsSet(reg)
	ag := &Aggregator[V, A, Out]{
		f:                 f,
		opts:              opts,
		st:                newStore(f, opts.Store == StoreEager, false, m),
		cachedCFTimeEdge:  stream.MaxTime,
		cachedCFCountEdge: stream.MaxTime,
		currWM:            stream.MinTime,
		reg:               reg,
		m:                 m,
		evictCountdown:    evictEvery,
	}
	ag.emitFn = func(s, e int64) { ag.emit(ag.triggerQ, s, e, false) }
	ag.touchFn = ag.windowTouched
	return ag
}

const evictEvery = 1024 // tuples between eviction passes in ordered mode

// Store gives tests and benchmarks read access to internals.
func (ag *Aggregator[V, A, Out]) Stats() Stats {
	return Stats{
		Slices:     ag.st.Len(),
		Splits:     ag.m.splits.Value(),
		Merges:     ag.m.merges.Value(),
		Recomputes: ag.m.recomputes.Value(),
		Shifts:     ag.m.shifts.Value(),
		Dropped:    ag.m.dropped.Value(),
		Tuples:     ag.st.totalCount,
	}
}

// StoresTuples reports the current Fig 4 decision.
func (ag *Aggregator[V, A, Out]) StoresTuples() bool { return ag.st.keepTuples }

// View exposes the aggregate store as a window.StoreView (tests).
func (ag *Aggregator[V, A, Out]) View() window.StoreView { return ag.st }

// ---------------------------------------------------------------- queries ---

// AddQuery registers a window query and returns its id. The workload
// characteristics (window type, measure, stream order, function properties)
// are re-derived, and the storage strategy adapts (§5: "our aggregator adapts
// when one adds or removes queries").
//
// A query added mid-stream starts at the current watermark: windows that
// completed before registration concern data that may already be evicted, so
// they are drained silently. When the store holds no tuples (the Fig 4
// aggregate-only regime), a periodic time query additionally skips every
// window overlapping already-ingested data — those slices can be neither
// split at the new query's edges nor partially recomputed at emission.
func (ag *Aggregator[V, A, Out]) AddQuery(def window.Definition) (int, error) {
	return ag.addQuery(def, false)
}

// AddQueryResumed registers a query whose definition's trigger cursor has
// already been advanced on its behalf by a sharing layer (internal/fleet
// returning a factored spec to direct execution). The silent draining and the
// no-stored-tuples alignment guard of AddQuery are skipped: the caller
// guarantees the cursor resumes exactly after the last emission it performed
// and that every boundary the query will fold is already a slice edge.
// updateFloor is the lowest window end the query ever emitted (in its measure
// units); out-of-order updates below it are suppressed exactly as AddQuery
// would have arranged at the original registration.
func (ag *Aggregator[V, A, Out]) AddQueryResumed(def window.Definition, updateFloor int64) (int, error) {
	id, err := ag.addQuery(def, true)
	if err == nil {
		ag.queries[len(ag.queries)-1].updFloor = updateFloor
	}
	return id, err
}

// seedWatermark floors a freshly built operator at the keyed layer's current
// watermark. Time-measure context-free cursors resume after the last window
// end the watermark already covers, and update floors rise to match, so an
// operator materialized mid-stream — a key first seen after watermark wm, or
// one re-created after idle expiry drained its previous incarnation with a
// synthetic MaxTime watermark — can neither replay windows from position
// zero (duplicate emissions to exactly-once sinks) nor emit updates for
// windows it never announced. Count-measure queries are left alone (a fresh
// key's count axis genuinely restarts at zero) and context-aware queries
// derive their windows from data the operator has not seen yet. This is the
// AddQueryResumed floor machinery applied at operator granularity; it is
// only meaningful on a fresh operator, so a target that has already ingested
// tuples or watermarks is left untouched.
func (ag *Aggregator[V, A, Out]) seedWatermark(wm int64) {
	if wm == stream.MinTime || ag.currWM != stream.MinTime || ag.st.totalCount > 0 {
		return
	}
	if wm != stream.MaxTime {
		for _, q := range ag.queries {
			if q.cf == nil || q.def.Measure() != stream.Time {
				continue
			}
			if r, ok := q.cf.(window.TriggerResumer); ok {
				r.ResumeTriggerAfter(wm)
				// The cursor is exact now; NextTrigger reports end-1 for
				// time measures, and updates start at the first window
				// this operator will itself announce.
				if f := q.cf.NextTrigger(ag.st) + 1; f > q.updFloor {
					q.updFloor = f
					q.seeded = true
				}
			} else if f := wm + 1; f > q.updFloor {
				q.updFloor = f
			}
		}
		// The slicer also starts at the stream origin: a fresh store's
		// single open slice covers [0, MaxTime), so the first tuple of a
		// key materialized at watermark wm would cut one empty slice per
		// elapsed context-free edge — O(wm/slide) work plus buffer slack
		// that never amortizes. Nothing older than wm-lateness+1 can be
		// accepted anymore (the late-drop band), so slicing begins there.
		// Windows whose start precedes the first slice still fold
		// correctly: aggregateTimeRange decides membership by tuple
		// times, and the edge-aligned fast path rejects the unaligned
		// boundary and falls back.
		if floor := wm - ag.opts.Lateness + 1; floor > ag.openStart() &&
			ag.st.Len() == 1 && ag.st.open().N == 0 {
			ag.st.open().Start = floor
			ag.refreshCFEdges()
		}
	}
	ag.currWM = wm
	ag.refreshTriggerWake()
}

func (ag *Aggregator[V, A, Out]) addQuery(def window.Definition, resumed bool) (int, error) {
	q := &query[V]{id: ag.nextID, def: def, updFloor: stream.MinTime}
	switch d := def.(type) {
	case window.ContextFree:
		q.cf = d
	case window.ContextAware[V]:
		q.ctx = d.NewContext(ag.st)
	default:
		return 0, fmt.Errorf("core: window type %T implements neither ContextFree nor ContextAware", def)
	}
	q.time = def.Measure() == stream.Time
	q.keep = needTuples(ag.opts.Ordered, ag.f.Props(), []window.Definition{def})
	if !ag.opts.Ordered && def.Measure() != ag.extentMeasure() && len(ag.queries) > 0 {
		return 0, fmt.Errorf("core: mixing %v- and %v-extent queries requires an in-order stream; use one aggregator per measure", def.Measure(), ag.extentMeasure())
	}
	if q.cf != nil && !resumed {
		drainTo := stream.MinTime
		if ag.currWM != stream.MinTime {
			drainTo = ag.currWM
		}
		if p, ok := def.(periodicParams); ok &&
			def.Measure() == stream.Time && !ag.st.keepTuples && ag.st.totalCount > 0 {
			// Aggregate-only slices holding pre-registration data cannot
			// serve this query: its edges may fall strictly inside them
			// (splitTime and partialByTime fail loudly on that). Seal the
			// open slice so future edges land in fresh territory, and
			// drain every window starting before the seal.
			length, _ := p.Params()
			safe := ag.st.maxSeen + 1
			if safe > ag.openStart() {
				ag.st.cutTime(safe)
			}
			if x := safe + length - 2; x > drainTo {
				drainTo = x
			}
		}
		if drainTo != stream.MinTime {
			q.cf.Trigger(ag.st, stream.MinTime, drainTo, func(int64, int64) {})
			// Updates must not resurrect drained windows. The periodic
			// cursor is exact (NextTrigger); other kinds fall back to the
			// drain horizon.
			q.updFloor = drainTo + 1
			if _, ok := def.(periodicParams); ok {
				q.updFloor = q.cf.NextTrigger(ag.st)
				if def.Measure() == stream.Time {
					q.updFloor++ // NextTrigger reports end-1 for time
				}
			}
		}
	}
	ag.nextID++
	ag.queries = append(ag.queries, q)
	if len(ag.queries) > 1 && ag.st.totalCount == 0 && ag.currWM == stream.MinTime {
		// No input yet: nothing derived from the other queries has moved
		// since it was last computed, so the new query's share is added to
		// it and registering n queries costs n, not n².
		ag.classify(q)
		ag.decideTuples(ag.st.keepTuples || q.keep)
		ag.syncDabaRings()
		ag.lowerCFEdge(q)
		ag.lowerTriggerWake(q)
	} else {
		ag.reconfigure()
	}
	return q.id, nil
}

// MustAddQuery is AddQuery for static configurations that cannot fail.
func (ag *Aggregator[V, A, Out]) MustAddQuery(def window.Definition) int {
	id, err := ag.AddQuery(def)
	if err != nil {
		panic(err)
	}
	return id
}

// RemoveQuery unregisters a query. Slice edges that no remaining query needs
// are merged away; the storage strategy is re-derived, trigger/eviction state
// derived from the query is dropped, and a registered partial tap is released.
func (ag *Aggregator[V, A, Out]) RemoveQuery(id int) {
	for i, q := range ag.queries {
		if q.id == id {
			ag.queries = append(ag.queries[:i], ag.queries[i+1:]...)
			delete(ag.taps, id)
			ag.reconfigure()
			ag.compact()
			return
		}
	}
}

// AddQueryWithID registers a query under a caller-chosen id. It exists for
// state restoration in sharing layers (internal/fleet) that rewrite query sets
// dynamically: after removals the live ids are no longer contiguous, and a
// restore target must reproduce the snapshotted ids exactly. The id must be
// unused; subsequent AddQuery calls continue above the highest id ever used.
func (ag *Aggregator[V, A, Out]) AddQueryWithID(id int, def window.Definition) error {
	if id < 0 {
		return fmt.Errorf("core: query id %d is negative", id)
	}
	for _, q := range ag.queries {
		if q.id == id {
			return fmt.Errorf("core: query id %d already registered", id)
		}
	}
	prev := ag.nextID
	ag.nextID = id
	_, err := ag.AddQuery(def)
	if ag.nextID < prev {
		ag.nextID = prev
	}
	return err
}

// SetPartialTap redirects the emissions of query id to tap: instead of
// lowering the window aggregate into a Result, the operator hands the raw
// partial aggregate (plus tuple count and update flag) to the tap. This is the
// factor-window hook of the sharing layer (docs/SHARING.md): a factor query's
// per-pane partials feed a FlatFAT ring that answers coarser covering windows,
// so the partials must be observable before Lower collapses them. A nil tap
// restores normal Result emission. Reports whether the query id exists.
func (ag *Aggregator[V, A, Out]) SetPartialTap(id int, tap func(start, end int64, a A, n int64, update bool)) bool {
	for _, q := range ag.queries {
		if q.id == id {
			if tap == nil {
				q.tapped = false
				delete(ag.taps, id)
				return true
			}
			if ag.taps == nil {
				ag.taps = make(map[int]func(start, end int64, a A, n int64, update bool))
			}
			q.tapped = true
			ag.taps[id] = tap
			return true
		}
	}
	return false
}

// Watermark reports the operator's current watermark position (stream.MinTime
// before the first watermark). Sharing layers schedule their own emissions
// against it.
func (ag *Aggregator[V, A, Out]) Watermark() int64 { return ag.currWM }

func (ag *Aggregator[V, A, Out]) extentMeasure() stream.Measure {
	if len(ag.queries) == 0 {
		return stream.Time
	}
	return ag.queries[0].def.Measure()
}

// reconfigure re-derives workload flags and the Fig 4 tuple-storage decision.
func (ag *Aggregator[V, A, Out]) reconfigure() {
	ag.hasCFTime, ag.hasCFCount, ag.hasCA, ag.needRank = false, false, false, false
	ag.ctxQueries = ag.ctxQueries[:0]
	// Fig 4 is an "at least one" over the queries on top of what the function
	// and the stream order decide alone, so each query's share is taken once,
	// at registration.
	keep := needTuples(ag.opts.Ordered, ag.f.Props(), nil)
	for _, q := range ag.queries {
		ag.classify(q)
		keep = keep || q.keep
	}
	ag.decideTuples(keep)
	ag.syncDabaRings()
	ag.refreshCFEdges()
	ag.refreshTriggerWake()
}

// classify adds one query's share to the workload flags.
func (ag *Aggregator[V, A, Out]) classify(q *query[V]) {
	switch {
	case q.cf != nil && q.time:
		ag.hasCFTime = true
	case q.cf != nil:
		ag.hasCFCount = true
	default:
		ag.hasCA = true
		ag.ctxQueries = append(ag.ctxQueries, q)
	}
	ag.needRank = ag.needRank || !q.time
}

// decideTuples applies the Fig 4 decision keep.
func (ag *Aggregator[V, A, Out]) decideTuples(keep bool) {
	if keep && !ag.st.keepTuples && ag.st.totalCount > 0 {
		// Switching tuple storage on mid-stream applies from the next
		// slice onwards: cut the open slice so no slice mixes stored
		// and unstored tuples. Context-aware windows registered now clip
		// themselves to data ingested from this point (their contexts
		// read the current total count); splits into older slices would
		// fail loudly.
		if cut := ag.st.maxSeen + 1; cut > ag.openStart() {
			ag.st.cutTime(cut)
		}
	}
	ag.st.keepTuples = keep
}

// openStart and openCStart are the slicer's cut positions: the boundary of
// the currently open slice on each axis.
func (ag *Aggregator[V, A, Out]) openStart() int64  { return ag.st.open().Start }
func (ag *Aggregator[V, A, Out]) openCStart() int64 { return ag.st.open().CStart }

func (ag *Aggregator[V, A, Out]) refreshCFEdges() {
	ag.cachedCFTimeEdge = stream.MaxTime
	ag.cachedCFCountEdge = stream.MaxTime
	for _, q := range ag.queries {
		ag.lowerCFEdge(q)
	}
}

// lowerCFEdge lowers the cached next edge to q's, if that comes sooner.
func (ag *Aggregator[V, A, Out]) lowerCFEdge(q *query[V]) {
	if q.cf == nil {
		return
	}
	if q.time {
		if e := q.cf.NextEdge(ag.openStart(), ag.opts.Ordered); e < ag.cachedCFTimeEdge {
			ag.cachedCFTimeEdge = e
		}
	} else {
		if e := q.cf.NextEdge(ag.openCStart(), ag.opts.Ordered); e < ag.cachedCFCountEdge {
			ag.cachedCFCountEdge = e
		}
	}
}

// refreshTriggerWake recomputes the context-free trigger wake positions.
func (ag *Aggregator[V, A, Out]) refreshTriggerWake() {
	ag.cfTriggerWakeTime = stream.MaxTime
	ag.cfTriggerWakeCount = stream.MaxTime
	for _, q := range ag.queries {
		ag.lowerTriggerWake(q)
	}
}

// lowerTriggerWake lowers the cached trigger wake to q's, if that comes sooner.
func (ag *Aggregator[V, A, Out]) lowerTriggerWake(q *query[V]) {
	if q.cf == nil {
		return
	}
	nt := q.cf.NextTrigger(ag.st)
	if q.time {
		if nt < ag.cfTriggerWakeTime {
			ag.cfTriggerWakeTime = nt
		}
	} else if nt < ag.cfTriggerWakeCount {
		ag.cfTriggerWakeCount = nt
	}
}

// nextWake reports the lowest watermark at which the operator could emit
// anything without ingesting another tuple — stream.MaxTime when no pending
// window can complete from watermarks alone. The keyed layer uses it to skip
// watermark broadcasts to quiescent keys and to decide when a spilled key
// must be re-hydrated, so it must never over-report: a wake later than a
// real emission would drop results. Unknown cases fall back to the raw
// NextTrigger horizon, which is always conservative.
func (ag *Aggregator[V, A, Out]) nextWake() int64 {
	if len(ag.pendingUpdates) > 0 {
		// Pending update spans flush on the next watermark regardless of
		// any trigger cursor.
		return stream.MinTime
	}
	wake := stream.MaxTime
	for _, q := range ag.queries {
		var w int64
		switch {
		case q.cf != nil && q.def.Measure() == stream.Time:
			w = q.cf.NextTrigger(ag.st)
			if p, ok := q.def.(periodicParams); ok {
				length, _ := p.Params()
				// Trigger postpones windows entirely after the last
				// observed tuple (the MaxSeenTime cap); only new data can
				// complete them, so watermarks alone never wake this query.
				if w > ag.st.MaxSeenTime()+length {
					w = stream.MaxTime
				}
			}
		case q.cf != nil:
			// Count windows complete when the watermark passes their last
			// tuple's event time; a window still missing tuples cannot
			// complete from watermarks alone.
			if ne := q.cf.NextTrigger(ag.st); ne > ag.st.TotalCount() {
				w = stream.MaxTime
			} else {
				w = ag.st.TimeAtCount(ne)
			}
		default:
			w = q.ctx.NextTrigger(ag.currWM)
		}
		if w < wake {
			wake = w
		}
	}
	return wake
}

// triggerDue reports whether any query may emit at watermark wm.
func (ag *Aggregator[V, A, Out]) triggerDue(wm int64) bool {
	if wm >= ag.cfTriggerWakeTime {
		return true
	}
	for _, q := range ag.ctxQueries {
		if q.ctx.NextTrigger(ag.currWM) <= wm {
			return true
		}
	}
	return false
}

// edgeNeeded reports whether any query other than except requires a slice
// edge at the boundary with time coordinate timePos and count coordinate
// countPos.
func (ag *Aggregator[V, A, Out]) edgeNeeded(timePos, countPos int64, except *query[V]) bool {
	for _, q := range ag.queries {
		if q == except {
			continue
		}
		pos := timePos
		if q.def.Measure() == stream.Count {
			pos = countPos
		}
		if q.cf != nil {
			if q.cf.IsEdge(pos, ag.opts.Ordered) {
				return true
			}
		} else if q.ctx.IsEdge(pos) {
			return true
		}
	}
	return false
}

// compact merges adjacent slices at boundaries no query needs anymore.
func (ag *Aggregator[V, A, Out]) compact() {
	for i := len(ag.st.slices) - 2; i >= 0; i-- {
		b := ag.st.slices[i+1]
		if !ag.edgeNeeded(b.Start, b.CStart, nil) {
			ag.st.mergeWith(i)
		}
	}
}

// ----------------------------------------------------------- processing ---

// ProcessElement ingests one tuple and returns any results it caused
// (in-order mode emits directly; out-of-order mode emits updates for windows
// already behind the watermark). The returned slice is reused by subsequent
// calls.
func (ag *Aggregator[V, A, Out]) ProcessElement(e stream.Event[V]) []Result[Out] {
	ag.results = ag.results[:0]
	ag.ingestElement(e)
	return ag.results
}

// ingestElement is ProcessElement without the result-buffer reset: results
// accumulate in ag.results, so batch ingestion can interleave elements and
// watermarks into one result run.
//
//slicelint:coldpath per-element fallback for out-of-order, edge, and context-aware tuples; the batched fast path never takes it in steady state
func (ag *Aggregator[V, A, Out]) ingestElement(e stream.Event[V]) {
	inOrder := e.Time >= ag.st.maxSeen
	if ag.opts.Ordered && !inOrder {
		panic(fmt.Sprintf("core: out-of-order tuple (t=%d < max=%d) on a stream declared Ordered", e.Time, ag.st.maxSeen))
	}
	if inOrder && e.Time == ag.st.maxSeen && !ag.opts.Ordered &&
		(!ag.st.props.Commutative || ag.needRank) {
		// A tie on the maximum timestamp may still be canonically out of
		// place (a same-timestamp event with a higher sequence number
		// already arrived). Non-commutative functions must aggregate in
		// canonical order, and count-measure queries need canonical
		// ranks, so take the out-of-order path, which inserts at the
		// canonical position.
		inOrder = false
	}
	// A tuple can lead this operator's own stream and still sit at or behind
	// its watermark: a key of a Keyed operator that was silent while other
	// keys advanced the broadcast watermark. Windows ending at or before the
	// watermark are announced, so such a tuple is late — it obeys the lateness
	// horizon and corrects announced windows through the out-of-order
	// pipeline — even though no earlier tuple outranks it. (A lone operator's
	// watermark trails its maxSeen, so this never fires there.)
	behindWM := inOrder && !ag.opts.Ordered && ag.currWM != stream.MinTime && e.Time <= ag.currWM
	if (!inOrder || behindWM) && ag.currWM != stream.MinTime && e.Time <= ag.currWM-ag.opts.Lateness {
		ag.m.dropped.Inc()
		return
	}
	switch {
	case behindWM:
		// Cut the edges up to the tuple first, so it lands in a slice of its
		// own windows, not in an open slice spanning everything since the
		// key's previous tuple.
		ag.advanceTimeEdges(e.Time)
		ag.st.maxSeen = e.Time
		ag.processOutOfOrder(e)
	case inOrder:
		ag.processInOrder(e)
	default:
		ag.processOutOfOrder(e)
	}
	if ag.evictCountdown--; ag.evictCountdown <= 0 {
		ag.evict()
		ag.evictCountdown = evictEvery
	}
}

// ProcessWatermark ingests a low watermark: no later tuple will carry a time
// <= wm (tuples that still do are handled by the allowed lateness). Triggers
// every window completed since the previous watermark.
func (ag *Aggregator[V, A, Out]) ProcessWatermark(wm int64) []Result[Out] {
	ag.results = ag.results[:0]
	ag.ingestWatermark(wm)
	return ag.results
}

// ingestWatermark is ProcessWatermark without the result-buffer reset.
//
//slicelint:coldpath runs once per watermark, not per tuple; triggering and gauge publication amortize across the batch
func (ag *Aggregator[V, A, Out]) ingestWatermark(wm int64) {
	if wm <= ag.currWM {
		return
	}
	ag.trigger(ag.currWM, wm, wm)
	ag.refreshTriggerWake()
	ag.currWM = wm
	ag.flushUpdates()
	ag.evict()
	ag.publishGauges()
}

// processInOrder is the §5.3 pipeline for in-order tuples: slice on the fly,
// trigger completed windows, observe contexts, append with one incremental
// aggregation step.
func (ag *Aggregator[V, A, Out]) processInOrder(e stream.Event[V]) {
	ag.advanceTimeEdges(e.Time)
	if ag.opts.Ordered {
		// Every tuple doubles as the watermark e.Time-1: ties on the
		// current timestamp may still arrive, anything earlier may not.
		// The cached wake position makes the common no-window-ended
		// case a single comparison.
		if wm := e.Time - 1; wm > ag.currWM {
			if ag.triggerDue(wm) {
				ag.trigger(ag.currWM, wm, wm)
				ag.refreshTriggerWake()
			}
			ag.currWM = wm
		}
	}
	rank := ag.st.totalCount
	for _, q := range ag.ctxQueries {
		ag.applyChanges(q, q.ctx.Observe(e, rank, true))
	}
	ag.st.addInOrder(e)
	ag.advanceCountEdges()
	if ag.opts.Ordered {
		// Count windows complete the instant their last tuple arrives.
		if ag.hasCFCount && ag.st.totalCount >= ag.cfTriggerWakeCount {
			ag.trigger(ag.currWM, ag.currWM, e.Time)
			ag.refreshTriggerWake()
		}
		ag.flushUpdates()
	}
}

// processOutOfOrder is the §5.3 pipeline for late tuples: contexts first
// (splits/merges), then a single slice update — incremental for commutative
// functions, recomputed otherwise — then the count-shift cascade if a
// count-based measure is in play, then update emissions for windows already
// behind the watermark.
func (ag *Aggregator[V, A, Out]) processOutOfOrder(e stream.Event[V]) {
	// The insertion slice is located once and threaded through: rank
	// derivation and the insert both need it. Context observations below may
	// split or merge slices, so the cached index is revalidated against the
	// store's structural version and re-searched only if the sequence
	// actually changed.
	rank, idx := int64(-1), -1
	version := ag.st.version
	if ag.needRank || ag.st.keepTuples {
		idx = ag.st.sliceForInsert(e)
		rank = ag.rankAt(idx, e)
	}
	for _, q := range ag.ctxQueries {
		ag.applyChanges(q, q.ctx.Observe(e, rank, false))
	}
	if ag.needRank {
		i := idx
		if i < 0 || ag.st.version != version {
			i = ag.st.sliceForInsert(e)
		}
		ag.st.addOutOfOrder(i, e)
		ag.st.shiftCascade(i)
		ag.advanceCountEdges()
	} else {
		i := ag.st.sliceByTime(e.Time)
		ag.st.addOutOfOrder(i, e)
	}
	// Update emissions for context-free queries (§5.3 step 3 case 1).
	// Tuples ahead of the watermark — out of order but not late — cannot
	// touch an emitted time window (every window containing them ends
	// after the watermark), so the common case skips the scan entirely.
	if ag.currWM != stream.MinTime && (e.Time <= ag.currWM || ag.needRank) {
		for _, q := range ag.queries {
			if q.cf == nil {
				continue
			}
			if q.def.Measure() == stream.Time && e.Time > ag.currWM {
				continue
			}
			pos := e.Time
			if q.def.Measure() == stream.Count {
				pos = rank
			}
			ag.triggerQ = q
			q.cf.WindowsTouched(ag.st, pos, ag.touchFn)
		}
	}
	ag.flushUpdates()
}

// windowTouched is processOutOfOrder's WindowsTouched callback for triggerQ:
// an update emission for a window the late tuple changed.
func (ag *Aggregator[V, A, Out]) windowTouched(s, en int64) {
	q := ag.triggerQ
	if q.def.Measure() == stream.Time && en-1 > ag.currWM {
		return // not yet emitted; the regular trigger will cover it
	}
	if en < q.updFloor {
		if !q.seeded {
			return // window predates this query's registration
		}
		// The window closed before this operator's first tuple (a key that
		// joined late), so it was never announced; the tuple makes it
		// non-empty. Announce it now; from here on late tuples correct it
		// with updates. WindowsTouched lists windows latest first, so the
		// floor steps down one window at a time.
		q.updFloor = en
		ag.emit(q, s, en, false)
		return
	}
	ag.emit(q, s, en, true)
}

// rankAt computes the canonical rank an out-of-order event will occupy given
// its insertion slice index i (from sliceForInsert).
func (ag *Aggregator[V, A, Out]) rankAt(i int, e stream.Event[V]) int64 {
	s := ag.st.slices[i]
	if len(s.Events) > 0 {
		k := sort.Search(len(s.Events), func(k int) bool { return e.Before(s.Events[k]) })
		return s.CStart + int64(k)
	}
	return s.CEnd()
}

// ----------------------------------------------------------- the slicer ---

// advanceTimeEdges cuts every pending time edge <= ts (Fig 7 step 1). The
// common case — no edge crossed — costs one comparison per edge source.
func (ag *Aggregator[V, A, Out]) advanceTimeEdges(ts int64) {
	for {
		open := ag.openStart()
		edge := ag.cachedCFTimeEdge
		for len(ag.dynamicTimeEdges) > 0 && ag.dynamicTimeEdges[0] <= open {
			ag.dynamicTimeEdges = ag.dynamicTimeEdges[1:] // already a boundary (context split)
		}
		if len(ag.dynamicTimeEdges) > 0 && ag.dynamicTimeEdges[0] < edge {
			edge = ag.dynamicTimeEdges[0]
		}
		for _, q := range ag.ctxQueries {
			if e := q.ctx.NextEdge(open); e < edge {
				edge = e
			}
		}
		if edge > ts || edge == stream.MaxTime {
			return
		}
		if edge > open {
			if s := ag.st.open(); s.N > 0 && edge <= s.TLast {
				// Out-of-order arrivals (e.g. a late tuple extending
				// an old session and moving its end edge) can leave
				// tuples beyond the edge in the open slice; partition
				// instead of closing the slice wholesale.
				ag.st.splitTime(edge)
			} else {
				ag.st.cutTime(edge)
			}
		}
		if edge >= ag.cachedCFTimeEdge {
			ag.refreshCFEdges()
		}
		for len(ag.dynamicTimeEdges) > 0 && ag.dynamicTimeEdges[0] <= edge {
			ag.dynamicTimeEdges = ag.dynamicTimeEdges[1:]
		}
	}
}

// advanceCountEdges cuts count edges reached by the current total count.
func (ag *Aggregator[V, A, Out]) advanceCountEdges() {
	if !ag.hasCFCount {
		return
	}
	for {
		edge := ag.cachedCFCountEdge
		if edge <= ag.openCStart() {
			ag.refreshCFEdges() // stale cache after a retroactive split
			if ag.cachedCFCountEdge <= edge {
				return
			}
			continue
		}
		if edge > ag.st.totalCount || edge == stream.MaxTime {
			return
		}
		if edge == ag.st.totalCount {
			ag.st.cutCount()
		} else {
			// A shift cascade advanced the count past the edge; cut
			// retroactively inside the slice.
			ag.st.splitCount(edge)
		}
		ag.refreshCFEdges()
	}
}

// ---------------------------------------------------- context plumbing ---

// applyChanges executes the slice-edge adjustments demanded by a context.
func (ag *Aggregator[V, A, Out]) applyChanges(q *query[V], ch window.Changes) {
	if ch.Empty() {
		return
	}
	countMeasure := q.def.Measure() == stream.Count
	for _, pos := range ch.Add {
		if countMeasure {
			ag.st.splitCount(pos)
			continue
		}
		if pos > ag.st.maxSeen && pos > ag.openStart() {
			// A future edge: remember it for on-the-fly slicing.
			i := sort.Search(len(ag.dynamicTimeEdges), func(i int) bool { return ag.dynamicTimeEdges[i] >= pos })
			if i == len(ag.dynamicTimeEdges) || ag.dynamicTimeEdges[i] != pos {
				ag.dynamicTimeEdges = append(ag.dynamicTimeEdges, 0)
				copy(ag.dynamicTimeEdges[i+1:], ag.dynamicTimeEdges[i:])
				ag.dynamicTimeEdges[i] = pos
			}
			continue
		}
		ag.st.splitTime(pos)
	}
	for _, span := range ch.Merge {
		ag.mergeRange(q, span, countMeasure)
	}
	for _, span := range ch.Updated {
		ag.pendingUpdates = append(ag.pendingUpdates, pendingUpdate{id: q.id, meas: q.def.Measure(), span: span})
	}
}

// mergeRange merges away the slice boundaries strictly inside span that no
// other query requires.
func (ag *Aggregator[V, A, Out]) mergeRange(q *query[V], span window.Span, countMeasure bool) {
	for i := len(ag.st.slices) - 2; i >= 0; i-- {
		b := ag.st.slices[i+1]
		pos := b.Start
		if countMeasure {
			pos = b.CStart
		}
		if pos <= span.Start || pos >= span.End {
			continue
		}
		if !ag.edgeNeeded(b.Start, b.CStart, q) {
			ag.st.mergeWith(i)
		}
	}
}

// flushUpdates emits pending context-update results for windows already
// behind the watermark. Emission happens after the causing tuple has been
// folded in, so the update carries the corrected aggregate.
func (ag *Aggregator[V, A, Out]) flushUpdates() {
	if len(ag.pendingUpdates) == 0 {
		return
	}
	for _, u := range ag.pendingUpdates {
		if u.meas == stream.Time && ag.currWM != stream.MinTime && u.span.End-1 > ag.currWM {
			continue // not yet emitted; the regular trigger covers it
		}
		if ag.currWM == stream.MinTime {
			continue
		}
		ag.emitSpan(u.id, u.meas, u.span.Start, u.span.End, true)
	}
	ag.pendingUpdates = ag.pendingUpdates[:0]
}

// ------------------------------------------------------- window manager ---

// trigger runs every query's trigger for the watermark interval
// (prevWM, currWM]; count-measure completion checks use countWM (in ordered
// mode a count window completes the instant its last tuple arrives).
//
//slicelint:coldpath emission path: runs once per completed window, not per tuple; range aggregation cost amortizes over the window's tuples
func (ag *Aggregator[V, A, Out]) trigger(prevWM, currWM, countWM int64) {
	for _, q := range ag.queries {
		if q.cf != nil {
			// Context-free count windows complete when their last rank
			// arrives, so their completion check may run ahead of the
			// strict watermark (countWM is the current tuple's time in
			// ordered mode).
			wm := currWM
			if q.def.Measure() == stream.Count {
				wm = countWM
			}
			ag.triggerQ = q
			q.cf.Trigger(ag.st, prevWM, wm, ag.emitFn)
			continue
		}
		// Context-aware windows always get strict watermark semantics
		// ("no more tuples <= wm"): forward-context-aware windows derive
		// counts *at a time point*, which is final only behind the
		// watermark — ties at the trigger time must all have arrived.
		// Contexts first materialize edges (§5.2 splits), then trigger.
		ag.applyChanges(q, q.ctx.OnWatermark(prevWM, currWM))
		ag.triggerQ = q
		q.ctx.Trigger(prevWM, currWM, ag.emitFn)
	}
}

func (ag *Aggregator[V, A, Out]) emit(q *query[V], s, e int64, update bool) {
	if !update && len(ag.dabaRings) > 0 {
		if d := ag.dabaFor(q.id); d != nil {
			if a, n, ok := ag.dabaServe(d, s, e); ok {
				ag.dabaHits++
				if q.tapped {
					ag.taps[q.id](s, e, a, n, false)
					return
				}
				ag.results = append(ag.results, Result[Out]{
					Query:   q.id,
					Measure: stream.Time,
					Start:   s,
					End:     e,
					Value:   ag.f.Lower(a),
					N:       n,
				})
				return
			}
			ag.dabaMisses++
		}
	}
	if q.tapped {
		a, n := ag.rangeAggregate(q.def.Measure(), s, e)
		ag.taps[q.id](s, e, a, n, update)
		return
	}
	ag.emitSpan(q.id, q.def.Measure(), s, e, update)
}

// rangeAggregate folds the store over [s, e) on the given measure, taking the
// eager tree's fast path when available.
func (ag *Aggregator[V, A, Out]) rangeAggregate(m stream.Measure, s, e int64) (A, int64) {
	if m == stream.Time {
		if ag.opts.Store == StoreEager {
			if a, n, ok := ag.st.aggregateTimeRangeFast(s, e); ok {
				return a, n
			}
		}
		return ag.st.aggregateTimeRange(s, e)
	}
	return ag.st.aggregateCountRange(s, e)
}

func (ag *Aggregator[V, A, Out]) emitSpan(id int, m stream.Measure, s, e int64, update bool) {
	a, n := ag.rangeAggregate(m, s, e)
	ag.results = append(ag.results, Result[Out]{
		Query:   id,
		Measure: m,
		Start:   s,
		End:     e,
		Value:   ag.f.Lower(a),
		N:       n,
		Update:  update,
	})
}

// ---------------------------------------------------------------- evict ---

// evict drops slices that no query can reference anymore: behind every
// query's interest horizon and behind the allowed lateness.
//
//slicelint:coldpath runs every evictEvery tuples (or per watermark); interest derivation goes through interface calls the analyzer cannot follow, and the cost amortizes
func (ag *Aggregator[V, A, Out]) evict() {
	if len(ag.queries) == 0 {
		return
	}
	minTime, minCount := stream.MaxTime, stream.MaxTime
	wm := ag.currWM
	if wm == stream.MinTime {
		return
	}
	for _, q := range ag.queries {
		var in window.Interest
		if q.cf != nil {
			in = q.cf.Interest(ag.st, wm, ag.opts.Lateness)
		} else {
			in = q.ctx.Interest(wm, ag.opts.Lateness)
		}
		if in.Time < minTime {
			minTime = in.Time
		}
		if in.Count < minCount {
			minCount = in.Count
		}
	}
	lateHorizon := wm - ag.opts.Lateness
	if !ag.opts.Ordered && lateHorizon < minTime {
		minTime = lateHorizon
	}
	k := 0
	for k < len(ag.st.slices)-1 {
		s := ag.st.slices[k]
		if s.End > minTime && minTime != stream.MaxTime {
			break
		}
		if !ag.opts.Ordered && s.End > lateHorizon {
			break
		}
		if s.CEnd() > minCount && minCount != stream.MaxTime {
			break
		}
		k++
	}
	ag.st.dropFront(k)
	for _, q := range ag.queries {
		if q.ctx != nil {
			q.ctx.Evict(minTime, minCount)
		}
	}
}

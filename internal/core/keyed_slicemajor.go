package core

import (
	"cmp"
	"slices"

	"scotty/internal/aggregate"
	"scotty/internal/memsize"
	"scotty/internal/obs"
	"scotty/internal/stream"
)

// sliceMajor is Keyed's state when every query is a context-free periodic
// time window over a commutative aggregate (sliceMajorKeyed in decision.go).
// Slice edges are then a function of the window set and of time alone — the
// same for every key — so the keys share one slice ring, each slice holds a
// key→partial table, and a key is a directory entry plus one trigger cursor
// per query instead of an operator of its own (docs/PERFORMANCE.md, "Keyed
// state").
type sliceMajor[K comparable, V, A, Out any] struct {
	f     aggregate.Function[V, A, Out]
	add   func(a A, e stream.Event[V]) A // devirtualized Accumulate (store.add)
	keyOf func(V) K

	lateness  int64
	idleTTL   int64
	qs        []smQuery // registration order
	maxLength int64

	currWM int64
	// nextDue is end-1 of the earliest window of any query that the current
	// watermark has not passed: a watermark below it completes no window.
	nextDue int64
	// expireAt lower-bounds the watermark at which some key idles out
	// (stream.MaxTime without an idle TTL).
	expireAt int64

	// ring holds the populated slices in ascending time order. A slice is one
	// cell of the union lattice of all queries' window starts and ends — the
	// edges the out-of-order slicer cuts on — created by the first tuple that
	// falls into it; cells no tuple reached do not exist.
	ring []*smSlice[A]
	pool []*smSlice[A] // evicted slices, tables cleared, awaiting reuse

	// The key directory: ids maps a key to its dense id, keys and cur are
	// indexed by id (cur holds len(qs) cursors per key), order lists the live
	// ids by first appearance — the emission order of a trigger pass.
	ids     map[K]uint32
	keys    []smKey[K]
	cur     []smCursor
	order   []uint32
	freeIDs []uint32
	nextSeq uint64
	// fed lists the keys whose cursors trailed the watermark when they were
	// next fed: the only keys a watermark that completes no window can owe
	// rows to.
	fed []uint32

	// One-entry directory cache: consecutive tuples of one key skip the map.
	lastKey K
	lastID  uint32
	lastOK  bool

	tuples  int64
	dropped int64
	maxSeen int64
	// keyVisits counts trigger passes over a key: what a watermark costs
	// beyond O(1).
	keyVisits int64

	// late is the dirty set of update rows: every (key, query, window) a
	// late tuple touched since the last watermark, emitted once per window
	// by the next one (flushLate).
	late []smLate

	m               *metricsSet
	keysLive        *obs.Gauge
	tuplesPublished int64

	results []KeyedResult[K, Out]
}

// smQuery is one periodic time window: ends lie at length + k*slide, edges at
// k*slide and k*slide + off.
type smQuery struct {
	id            int
	desc          string // describeQuery, for snapshot validation
	length, slide int64
	off           int64 // length % slide
}

// smKey is a key's directory entry.
type smKey[K comparable] struct {
	key     K
	maxSeen int64
	// seq orders keys by first appearance (ids are recycled, so they do not).
	seq uint64
	// gen tags the key's cells: an id handed to a new key after idle expiry
	// carries the next generation, and cells of the previous one read as
	// absent.
	gen uint32
	// behind marks a key with a cursor trailing the watermark — it fell
	// silent, and triggers stop one window length past a key's last tuple.
	// Its next tuple queues it in fed.
	behind bool
}

// smCursor is one key's trigger state for one query.
type smCursor struct {
	// nextEnd is the end of the next window to announce; windows are
	// announced in order and never skipped.
	nextEnd int64
	// floor is the lowest window end announced for this key so far (or the
	// first it will announce): a late tuple corrects windows in
	// [floor, nextEnd) with update rows.
	floor int64
}

// smLate marks one key's window of query qs[q] starting at start. first
// marks a window that closed before the key existed: it leaves as the key's
// first row for it, not as an update.
type smLate struct {
	id    uint32
	q     int32
	start int64
	first bool
}

// smSlice is one lattice cell [start, end) with every key's partial for it.
type smSlice[A any] struct {
	start, end int64
	n          int64 // tuples folded in, all keys
	// tab is an open-addressed index over cells: a slot holds a cell's
	// position plus one, zero is empty; its length is a power of two and the
	// load stays at or below one half.
	tab   []uint32
	shift uint8 // 32 - log2(len(tab))
	cells []smCell[A]
}

type smCell[A any] struct {
	id, gen uint32
	n       int64
	a       A
}

const smMinTable = 16

func newSliceMajor[K comparable, V, A, Out any](keyOf func(V) K, idleTTL int64, probe *Aggregator[V, A, Out]) *sliceMajor[K, V, A, Out] {
	s := &sliceMajor[K, V, A, Out]{
		f:        probe.f,
		add:      probe.st.add,
		keyOf:    keyOf,
		lateness: probe.opts.Lateness,
		idleTTL:  idleTTL,
		currWM:   stream.MinTime,
		nextDue:  stream.MinTime,
		expireAt: stream.MaxTime,
		ids:      map[K]uint32{},
		maxSeen:  stream.MinTime,
		m:        probe.m,
		keysLive: probe.reg.Gauge("core_keys_live"),
	}
	for _, q := range probe.queries {
		length, slide := q.def.(periodicParams).Params()
		s.qs = append(s.qs, smQuery{id: q.id, desc: describeQuery(q.def), length: length, slide: slide, off: length % slide})
		s.maxLength = max(s.maxLength, length)
	}
	return s
}

// ------------------------------------------------------------- lattice ---

// multipleAfter returns the smallest k*step+off (k >= 0) strictly after pos.
func multipleAfter(pos, step, off int64) int64 {
	if pos < off {
		return off
	}
	return ((pos-off)/step+1)*step + off
}

// endAfter returns the first window end a watermark at wm has not passed
// (end-1 > wm): where a key created at that watermark starts announcing.
func (q *smQuery) endAfter(wm int64) int64 {
	if wm == stream.MinTime {
		return q.length
	}
	if wm >= stream.MaxTime-1 {
		return stream.MaxTime
	}
	return max(q.length, multipleAfter(wm+1, q.slide, q.off))
}

// dueAfter returns end-1 of the earliest window of any query a watermark at wm
// has not passed.
func (s *sliceMajor[K, V, A, Out]) dueAfter(wm int64) int64 {
	due := stream.MaxTime
	for i := range s.qs {
		due = min(due, s.qs[i].endAfter(wm)-1)
	}
	return due
}

// idlesAfter lowers expireAt for a key last seen at maxSeen.
func (s *sliceMajor[K, V, A, Out]) idlesAfter(maxSeen int64) {
	if s.idleTTL > 0 {
		s.expireAt = min(s.expireAt, maxSeen+s.idleTTL+s.lateness)
	}
}

// cellBounds returns the lattice cell holding t.
func (s *sliceMajor[K, V, A, Out]) cellBounds(t int64) (start, end int64) {
	if t < 0 {
		return stream.MinTime, 0 // before every window
	}
	start, end = 0, stream.MaxTime
	for i := range s.qs {
		q := &s.qs[i]
		start = max(start, t-t%q.slide)
		if t >= q.off {
			start = max(start, t-(t-q.off)%q.slide)
		}
		end = min(end, multipleAfter(t, q.slide, 0), multipleAfter(t, q.slide, q.off))
	}
	return start, end
}

// --------------------------------------------------------------- ingest ---

//slicelint:hotpath
func (s *sliceMajor[K, V, A, Out]) processBatch(batch []stream.Item[V]) []KeyedResult[K, Out] {
	s.results = s.results[:0]
	for i := range batch {
		if batch[i].Kind == stream.KindEvent {
			s.ingest(batch[i].Event)
		} else {
			s.watermark(batch[i].Watermark)
		}
	}
	return s.results
}

// ingest folds one tuple: the late check against the stream's watermark, the
// directory lookup (skipped within a run of one key), one slice-table probe,
// one accumulate.
//
//slicelint:hotpath
func (s *sliceMajor[K, V, A, Out]) ingest(e stream.Event[V]) {
	t := e.Time
	late := t <= s.currWM && s.currWM != stream.MinTime
	if late && t <= s.currWM-s.lateness {
		s.dropped++
		s.m.dropped.Inc()
		return
	}
	key := s.keyOf(e.Value)
	id := s.lastID
	if !s.lastOK || key != s.lastKey {
		var ok bool
		if id, ok = s.ids[key]; !ok {
			id = s.newKey(key, t)
		}
		s.lastKey, s.lastID, s.lastOK = key, id, true
	}
	var sl *smSlice[A]
	if n := len(s.ring); n > 0 && t >= s.ring[n-1].start && t < s.ring[n-1].end {
		sl = s.ring[n-1]
	} else {
		sl = s.sliceAt(t)
	}
	kk := &s.keys[id]
	c := s.cell(sl, id, kk.gen)
	c.a = s.add(c.a, e)
	c.n++
	sl.n++
	s.tuples++
	if t > kk.maxSeen {
		kk.maxSeen = t
		if t > s.maxSeen {
			s.maxSeen = t
		}
	}
	if kk.behind {
		kk.behind = false
		s.fed = append(s.fed, id)
	}
	if late {
		s.lateRows(id, t)
	}
}

// newKey enters a key into the directory. Its cursors start where a per-key
// operator seeded at the current watermark would (seedWatermark): at the
// first window the watermark has not passed, so windows already finalized for
// the stream are not replayed as empty rows for a key that joins late.
//
//slicelint:coldpath first appearance of a key; the directory entry amortizes over the key's lifetime
func (s *sliceMajor[K, V, A, Out]) newKey(key K, t int64) uint32 {
	nq := len(s.qs)
	var id uint32
	if n := len(s.freeIDs); n > 0 {
		id = s.freeIDs[n-1]
		s.freeIDs = s.freeIDs[:n-1]
	} else {
		id = uint32(len(s.keys))
		s.keys = append(s.keys, smKey[K]{})
		s.cur = append(s.cur, make([]smCursor, nq)...)
	}
	kk := &s.keys[id]
	*kk = smKey[K]{key: key, maxSeen: stream.MinTime, seq: s.nextSeq, gen: kk.gen}
	s.nextSeq++
	cur := s.cur[int(id)*nq:]
	for i := range s.qs {
		end := s.qs[i].endAfter(s.currWM)
		cur[i] = smCursor{nextEnd: end, floor: end}
		if s.currWM == stream.MinTime {
			cur[i].floor = stream.MinTime
		}
	}
	s.ids[key] = id
	s.order = append(s.order, id)
	s.idlesAfter(t)
	return id
}

// sliceAt returns the slice holding t, creating it if t is the first tuple of
// its lattice cell.
func (s *sliceMajor[K, V, A, Out]) sliceAt(t int64) *smSlice[A] {
	lo, hi := 0, len(s.ring) // first slice starting after t
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ring[mid].start > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 && t < s.ring[lo-1].end {
		return s.ring[lo-1]
	}
	return s.openSlice(lo, t)
}

//slicelint:coldpath runs once per populated lattice cell; evicted slices are recycled with their tables
func (s *sliceMajor[K, V, A, Out]) openSlice(at int, t int64) *smSlice[A] {
	var sl *smSlice[A]
	if n := len(s.pool); n > 0 {
		sl = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		sl = &smSlice[A]{}
		sl.setTable(smMinTable)
	}
	sl.start, sl.end = s.cellBounds(t)
	s.ring = slices.Insert(s.ring, at, sl)
	return sl
}

func (sl *smSlice[A]) setTable(size int) {
	sl.tab = make([]uint32, size)
	sl.shift = 32
	for n := size; n > 1; n >>= 1 {
		sl.shift--
	}
}

func (sl *smSlice[A]) slot(id uint32) uint32 { return (id * 0x9E3779B1) >> sl.shift }

// find returns the position of id's cell, or -1.
func (sl *smSlice[A]) find(id uint32) int {
	mask := uint32(len(sl.tab) - 1)
	for h := sl.slot(id); ; h = (h + 1) & mask {
		c := sl.tab[h]
		if c == 0 {
			return -1
		}
		if sl.cells[c-1].id == id {
			return int(c - 1)
		}
	}
}

// cell returns the key's cell in sl, adding it on the key's first tuple in the
// slice. A new cell starts from its own Identity: Accumulate may mutate a
// partial in place, so cells must not share one.
func (s *sliceMajor[K, V, A, Out]) cell(sl *smSlice[A], id, gen uint32) *smCell[A] {
	if i := sl.find(id); i >= 0 {
		c := &sl.cells[i]
		if c.gen != gen {
			// Left by a key that idled out; the id is another key's now.
			sl.n -= c.n
			c.gen, c.n, c.a = gen, 0, s.f.Identity()
		}
		return c
	}
	if (len(sl.cells)+1)*2 > len(sl.tab) {
		sl.grow()
	}
	sl.cells = append(sl.cells, smCell[A]{id: id, gen: gen, a: s.f.Identity()})
	sl.index(len(sl.cells) - 1)
	return &sl.cells[len(sl.cells)-1]
}

// index enters cells[i] into the table.
func (sl *smSlice[A]) index(i int) {
	mask := uint32(len(sl.tab) - 1)
	h := sl.slot(sl.cells[i].id)
	for sl.tab[h] != 0 {
		h = (h + 1) & mask
	}
	sl.tab[h] = uint32(i + 1)
}

//slicelint:coldpath the table doubles, so growth amortizes to O(1) per cell, and a recycled slice keeps its size
func (sl *smSlice[A]) grow() {
	sl.setTable(len(sl.tab) * 2)
	for i := range sl.cells {
		sl.index(i)
	}
}

// ------------------------------------------------------------ emission ---

// fold combines the key's partials over the slices of [from, to), oldest
// first and skipping slices the key is absent from — the order and the
// operands of the per-key store's range fold, so float results agree bit for
// bit. Window bounds are lattice edges, so a slice is inside or outside whole.
func (s *sliceMajor[K, V, A, Out]) fold(id, gen uint32, from, to int64) (A, int64) {
	agg := s.f.Identity()
	var n int64
	i, _ := slices.BinarySearchFunc(s.ring, from, func(sl *smSlice[A], from int64) int { return cmp.Compare(sl.start, from) })
	for ; i < len(s.ring) && s.ring[i].start < to; i++ {
		sl := s.ring[i]
		if j := sl.find(id); j >= 0 && sl.cells[j].gen == gen && sl.cells[j].n > 0 {
			agg = s.f.Combine(agg, sl.cells[j].a)
			n += sl.cells[j].n
		}
	}
	return agg, n
}

func (s *sliceMajor[K, V, A, Out]) emit(id uint32, q *smQuery, start, end int64, update bool) {
	kk := &s.keys[id]
	agg, n := s.fold(id, kk.gen, start, end)
	s.results = append(s.results, KeyedResult[K, Out]{Key: kk.key, Result: Result[Out]{
		Query:   q.id,
		Measure: stream.Time,
		Start:   start,
		End:     end,
		Value:   s.f.Lower(agg),
		N:       n,
		Update:  update,
	}})
}

// triggerKey announces the key's windows the watermark has passed, per query
// in registration order, windows ascending. Like periodic.Trigger it stops
// one window length past the key's last tuple: windows wholly after it are
// empty so far and wait for the key's next tuple (which is what ends the
// MaxTime drain), while gaps inside a key's activity print as n=0 rows.
func (s *sliceMajor[K, V, A, Out]) triggerKey(id uint32, wm int64) {
	s.keyVisits++
	kk := &s.keys[id]
	cur := s.cur[int(id)*len(s.qs):]
	behind := false
	for i := range s.qs {
		q, c := &s.qs[i], &cur[i]
		hi := min(wm, kk.maxSeen+q.length)
		for c.nextEnd-1 <= hi {
			s.emit(id, q, c.nextEnd-q.length, c.nextEnd, false)
			c.nextEnd += q.slide
		}
		behind = behind || c.nextEnd-1 <= wm
	}
	kk.behind = behind
}

// lateRows marks what a tuple at or behind the watermark owes: per query, for
// each window holding t, an update row if the window was announced for this
// key; nothing if its regular trigger is still to come; and if the window
// closed before the key existed, its first, regular row — from then on it
// counts as announced.
//
//slicelint:coldpath late tuples only; a mark per window holding the tuple
func (s *sliceMajor[K, V, A, Out]) lateRows(id uint32, t int64) {
	if t < 0 {
		return
	}
	cur := s.cur[int(id)*len(s.qs):]
	for i := range s.qs {
		q, c := &s.qs[i], &cur[i]
		for start := t - t%q.slide; start >= 0 && start+q.length > t; start -= q.slide {
			switch end := start + q.length; {
			case end >= c.nextEnd:
			case end >= c.floor:
				s.mark(smLate{id: id, q: int32(i), start: start})
			default:
				s.mark(smLate{id: id, q: int32(i), start: start, first: true})
				c.floor = end
			}
		}
	}
}

// flushLate emits the marked windows, each once, keys in first-appearance
// order, then per query and window start, so restored and uninterrupted runs
// agree whatever ids the keys hold.
func (s *sliceMajor[K, V, A, Out]) flushLate() {
	if len(s.late) == 0 {
		return
	}
	for _, l := range s.compactLate() {
		q := &s.qs[l.q]
		s.emit(l.id, q, l.start, l.start+q.length, !l.first)
	}
	s.late = s.late[:0]
}

// mark adds a window to the dirty set, compacting a full set first as the
// core's Aggregator.mark does.
func (s *sliceMajor[K, V, A, Out]) mark(l smLate) {
	if n := len(s.late); n > 0 && n == cap(s.late) {
		p := s.compactLate()
		s.late = slices.Grow(p, len(p))
	}
	s.late = append(s.late, l)
}

// compactLate sorts the dirty set into flush order, keeps one mark per
// window (a first mark over an update), and returns it.
func (s *sliceMajor[K, V, A, Out]) compactLate() []smLate {
	slices.SortFunc(s.late, func(a, b smLate) int {
		return cmp.Or(cmp.Compare(s.keys[a.id].seq, s.keys[b.id].seq), cmp.Compare(a.q, b.q),
			cmp.Compare(a.start, b.start), cmpFirst(a.first, b.first))
	})
	return slices.CompactFunc(s.late, func(a, b smLate) bool { return a.id == b.id && a.q == b.q && a.start == b.start })
}

// ----------------------------------------------------------- watermarks ---

// watermark advances the stream's watermark: first the update rows late
// tuples marked since the previous one, then triggers. If it completes no
// window and no trailing key was fed, there is nothing to do per key; if it
// completes no window, only the fed keys can owe rows; otherwise every key is
// visited, in first-appearance order, over the flat cursor array.
//
//slicelint:coldpath runs once per watermark, not per tuple; trigger passes, idle expiry and eviction amortize across the batch
func (s *sliceMajor[K, V, A, Out]) watermark(wm int64) {
	if wm <= s.currWM {
		return
	}
	s.flushLate()
	s.currWM = wm
	switch {
	case wm >= s.nextDue || (wm > s.expireAt && wm != stream.MaxTime):
		s.triggerAll(wm)
	case len(s.fed) > 0:
		slices.SortFunc(s.fed, func(a, b uint32) int { return cmp.Compare(s.keys[a].seq, s.keys[b].seq) })
		for _, id := range s.fed {
			s.triggerKey(id, wm)
		}
	}
	s.fed = s.fed[:0]
	s.nextDue = s.dueAfter(wm)
	s.evict(wm)
	s.publish()
}

// triggerAll is the full pass: trigger every live key, then expire the idle
// ones. Expiry drains a key first — a synthetic MaxTime trigger announces the
// windows still holding its last tuples — and then frees its id; the cells it
// leaves in live slices are disowned by the generation bump.
func (s *sliceMajor[K, V, A, Out]) triggerAll(wm int64) {
	expires := s.idleTTL > 0 && wm != stream.MaxTime
	s.expireAt = stream.MaxTime
	live := s.order[:0]
	for _, id := range s.order {
		s.triggerKey(id, wm)
		kk := &s.keys[id]
		if expires && wm-kk.maxSeen > s.idleTTL+s.lateness {
			s.triggerKey(id, stream.MaxTime)
			delete(s.ids, kk.key)
			*kk = smKey[K]{gen: kk.gen + 1}
			s.freeIDs = append(s.freeIDs, id)
			s.lastOK = false
			continue
		}
		s.idlesAfter(kk.maxSeen)
		live = append(live, id)
	}
	s.order = live
}

// evict recycles the slices no window can read again: a late tuple is
// accepted only after wm-lateness, and the oldest window holding one starts
// less than a window length before it. A key's unannounced windows all start
// after its last tuple, so a trailing cursor never reaches back further.
func (s *sliceMajor[K, V, A, Out]) evict(wm int64) {
	horizon := wm - s.lateness - s.maxLength
	k := 0
	for k < len(s.ring) && s.ring[k].end <= horizon {
		sl := s.ring[k]
		clear(sl.tab)
		clear(sl.cells) // partials may hold pointers
		sl.cells, sl.n = sl.cells[:0], 0
		s.pool = append(s.pool, sl)
		k++
	}
	s.ring = slices.Delete(s.ring, 0, k)
}

// publish syncs the registry view, as Aggregator.publishGauges does.
func (s *sliceMajor[K, V, A, Out]) publish() {
	s.m.tuples.Add(s.tuples - s.tuplesPublished)
	s.tuplesPublished = s.tuples
	s.m.slices.Set(int64(len(s.ring)))
	lag := s.maxSeen - s.currWM
	if s.maxSeen == stream.MinTime || lag < 0 {
		lag = 0
	}
	s.m.wmLag.Set(lag)
	s.keysLive.Set(int64(len(s.ids)))
}

// ------------------------------------------------------------ reporting ---

func (s *sliceMajor[K, V, A, Out]) stats() Stats {
	return Stats{Slices: len(s.ring), Tuples: s.tuples, Dropped: s.dropped}
}

func (s *sliceMajor[K, V, A, Out]) sliceSnapshot() []SliceInfo {
	out := make([]SliceInfo, len(s.ring))
	for i, sl := range s.ring {
		out[i] = SliceInfo{Start: sl.start, End: sl.end, N: sl.n, Keys: len(sl.cells)}
	}
	return out
}

// residentBytes measures the directory, the cursor array and every slice's
// table and cells (pooled slices included: they are held, not free).
func (s *sliceMajor[K, V, A, Out]) residentBytes() int64 {
	return memsize.Of(s.ids) + memsize.Of(s.keys) + memsize.Of(s.cur) +
		memsize.Of(s.order) + memsize.Of(s.freeIDs) + memsize.Of(s.fed) +
		memsize.Of(s.late) + memsize.Of(s.ring) + memsize.Of(s.pool)
}

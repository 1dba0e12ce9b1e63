package core

import (
	"scotty/internal/stream"
	"scotty/internal/window"
)

// KeyedResult is a window aggregate of one key's sub-stream.
type KeyedResult[K comparable, Out any] struct {
	Key K
	Result[Out]
}

// Keyed windows and aggregates every key's sub-stream independently,
// mirroring the keyed window operators of dataflow systems (§5.3
// Parallelization — key partitioning is the sharing boundary; within a key,
// all queries still share slices). Watermarks apply to every key.
//
// It keeps one of two representations, chosen once in NewKeyed by the rule in
// decision.go (sliceMajorKeyed), never by the caller:
//
//   - slice-major, when every query is a context-free periodic time window
//     over a commutative aggregate: such windows cut the same slice edges for
//     every key, so the keys share one slice ring whose slices each hold a
//     key→partial table, and a key costs a directory entry and a trigger
//     cursor per query (keyed_slicemajor.go);
//   - one Aggregator per key otherwise: sessions and count windows slice on
//     the data, so their slices really are per key. EnableSpill also selects
//     it — the spill tier evicts whole per-key operators.
//
// Both emit the same rows in the same order on an in-order stream. Keys
// appear lazily on first use and are dropped again once they have been idle
// past the allowed lateness and hold no unemitted state worth keeping
// (bounding state for rotating key spaces). With EnableSpill, resident state
// is additionally bounded by a byte budget: cold keys' operator state moves
// to disk and transparently re-hydrates on the key's next tuple or due
// emission (docs/MEMORY.md).
type Keyed[K comparable, V, A, Out any] struct {
	// sm is the slice-major representation; nil selects the per-key one,
	// which is everything below.
	sm *sliceMajor[K, V, A, Out]

	newOp func() *Aggregator[V, A, Out]
	keyOf func(V) K
	ops   map[K]*keyedEntry[V, A, Out]
	// order lists live keys by first appearance so watermark broadcasts
	// emit results in a deterministic order (map iteration order would
	// leak into the output stream).
	order   []K
	results []KeyedResult[K, Out]
	currWM  int64
	// idleTTL is how long (in event time) a key may be silent before its
	// operator is discarded; 0 disables expiry.
	idleTTL int64
	// lateness is the per-key operators' allowed lateness, probed once at
	// construction: the keyed layer's own late-drop and idle-expiry checks
	// must agree with the operators' horizon, including for keys that are
	// currently cold or not materialized at all.
	lateness int64
	// tuples and dropped count what the keyed layer accepted and what it
	// discarded as at or behind currWM-lateness, whichever key it names.
	// Counting here keeps Stats exact when keys expire or spill and take
	// their operators' counters with them.
	tuples  int64
	dropped int64

	// spill, when non-nil, bounds resident state (EnableSpill).
	spill *spillState[K]

	// Batch grouping scratch state: runs[i] collects the sub-batch of the
	// i-th distinct key of the current segment (buffers are reused across
	// batches), runKeys records those keys in first-appearance order so
	// per-key emission stays deterministic, and scratch maps a key to its
	// run index for the duration of one segment.
	runs    [][]stream.Item[V]
	runKeys []K
	scratch map[K]int
}

// keyedEntry is one key's slot. op == nil marks a cold key: its operator
// state lives in the spill store under file, and wake (computed at spill
// time) lower-bounds the watermark at which it could emit again.
type keyedEntry[V, A, Out any] struct {
	op       *Aggregator[V, A, Out]
	lastSeen int64
	// wake lower-bounds the next watermark at which this key could emit
	// without new data. stream.MinTime means "unknown — process at the
	// next broadcast" (set after every feed); stream.MaxTime means the
	// operator cannot emit again from watermarks alone.
	wake int64
	// file names the spill blob while the key is cold.
	file string
}

// NewKeyed creates a keyed operator. keyOf extracts the partitioning key;
// newOp builds the per-key aggregator and must register the query set with
// FRESH window definitions on every call: a ContextFree definition carries
// its trigger-cursor state, so sharing one instance across operators would
// advance a single cursor for all keys and silence every operator but the
// first to trigger. idleTTL > 0 expires keys idle for that many milliseconds
// of event time.
//
// newOp is called once here: the operator it returns states the workload —
// function, options, query set — from which the representation is chosen, and
// on the slice-major one it is the only operator ever built.
func NewKeyed[K comparable, V, A, Out any](keyOf func(V) K, idleTTL int64, newOp func() *Aggregator[V, A, Out]) *Keyed[K, V, A, Out] {
	probe := newOp()
	k := &Keyed[K, V, A, Out]{
		newOp:    newOp,
		keyOf:    keyOf,
		ops:      map[K]*keyedEntry[V, A, Out]{},
		scratch:  map[K]int{},
		currWM:   stream.MinTime,
		idleTTL:  idleTTL,
		lateness: probe.opts.Lateness,
	}
	defs := make([]window.Definition, len(probe.queries))
	for i, q := range probe.queries {
		defs[i] = q.def
	}
	if sliceMajorKeyed(probe.opts, probe.st.keepTuples, len(probe.taps) > 0, defs) {
		k.sm = newSliceMajor(keyOf, idleTTL, probe)
	}
	return k
}

// Keys returns the number of live keys (resident and spilled).
func (k *Keyed[K, V, A, Out]) Keys() int {
	if k.sm != nil {
		return len(k.sm.ids)
	}
	return len(k.ops)
}

// entry returns the key's aggregator slot, creating it on first use.
func (k *Keyed[K, V, A, Out]) entry(key K) *keyedEntry[V, A, Out] {
	ent, ok := k.ops[key]
	if !ok {
		//lint:ignore hotalloc first appearance of a key materializes its operator once; the allocation amortizes over the key's lifetime
		ent = &keyedEntry[V, A, Out]{op: k.newOp(), lastSeen: stream.MinTime, wake: stream.MinTime}
		// A key materialized mid-stream starts at the keyed watermark,
		// not at MinTime: without the floor, a key first seen after
		// watermark W — or re-created after idle expiry drained its
		// predecessor — would treat W-late tuples as in-order and replay
		// windows from position zero, duplicating emissions the drain
		// already finalized.
		ent.op.seedWatermark(k.currWM)
		k.ops[key] = ent
		k.order = append(k.order, key)
	}
	return ent
}

// tooLate reports whether a tuple at time t can no longer land in any
// still-open window given the keyed watermark and the operators' lateness.
func (k *Keyed[K, V, A, Out]) tooLate(t int64) bool {
	return k.currWM != stream.MinTime && t <= k.currWM-k.lateness
}

// ready makes the key's operator resident and caught up with the keyed
// watermark. Re-hydration pulls a spilled operator back off disk; the
// watermark catch-up replays broadcasts the key skipped while quiescent. By
// the wake bound nothing was due in the skipped span, so the catch-up emits
// no results; they are appended anyway — reordering an emission would be
// better than losing one.
func (k *Keyed[K, V, A, Out]) ready(key K, ent *keyedEntry[V, A, Out]) {
	if ent.op == nil {
		k.rehydrate(key, ent)
	}
	if ent.op.Watermark() < k.currWM {
		for _, r := range ent.op.ProcessWatermark(k.currWM) {
			k.results = append(k.results, KeyedResult[K, Out]{Key: key, Result: r})
		}
	}
}

// ProcessElement routes the tuple to its key's aggregator. The returned
// slice is reused across calls.
func (k *Keyed[K, V, A, Out]) ProcessElement(e stream.Event[V]) []KeyedResult[K, Out] {
	if k.sm != nil {
		k.sm.results = k.sm.results[:0]
		k.sm.ingest(e)
		return k.sm.results
	}
	k.results = k.results[:0]
	if k.tooLate(e.Time) {
		// Too late to land anywhere: the operator's own lateness check
		// would drop the tuple (right after materialization or
		// re-hydration, if the key is absent or cold), so drop it here.
		// Without this, a key fed exclusively too-late data is re-created —
		// and re-drained — every single watermark.
		k.dropped++
		return k.results
	}
	k.tuples++
	key := k.keyOf(e.Value)
	ent := k.ops[key]
	if ent == nil {
		ent = k.entry(key)
	} else {
		k.ready(key, ent)
	}
	if e.Time > ent.lastSeen {
		ent.lastSeen = e.Time
	}
	for _, r := range ent.op.ProcessElement(e) {
		k.results = append(k.results, KeyedResult[K, Out]{Key: key, Result: r})
	}
	ent.wake = stream.MinTime
	return k.results
}

// ProcessWatermark broadcasts the watermark to every key and expires idle
// keys. The returned slice is reused across calls.
func (k *Keyed[K, V, A, Out]) ProcessWatermark(wm int64) []KeyedResult[K, Out] {
	if k.sm != nil {
		k.sm.results = k.sm.results[:0]
		k.sm.watermark(wm)
		return k.sm.results
	}
	k.results = k.results[:0]
	k.broadcastWatermark(wm)
	return k.results
}

//slicelint:coldpath runs once per watermark, not per tuple; per-key triggering, idle-key expiry, and spill budget enforcement amortize across the batch
func (k *Keyed[K, V, A, Out]) broadcastWatermark(wm int64) {
	k.currWM = wm
	live := k.order[:0]
	for _, key := range k.order {
		ent := k.ops[key]
		expire := k.idleTTL > 0 && wm != stream.MaxTime && wm-ent.lastSeen > k.idleTTL+k.lateness
		if !expire && (wm < ent.wake || ent.wake == stream.MaxTime) {
			// Quiescent key: wake lower-bounds its next possible emission
			// (MaxTime = it cannot emit again without new data), it has
			// no pending updates, and it is not yet idle. Skip the
			// broadcast entirely — ready() catches the operator up before
			// its next tuple — so an idle key costs two comparisons per
			// watermark instead of a trigger scan, and a cold key stays
			// on disk.
			live = append(live, key)
			continue
		}
		if ent.op == nil {
			k.rehydrate(key, ent)
		}
		for _, r := range ent.op.ProcessWatermark(wm) {
			k.results = append(k.results, KeyedResult[K, Out]{Key: key, Result: r})
		}
		if expire {
			// Drain before deleting: an idle key may still hold unemitted
			// state — a session whose gap exceeds the TTL, or the partial
			// window holding its last tuples. The synthetic MaxTime
			// watermark emits exactly the windows the stream-final
			// watermark would have (triggers cap at the last observed
			// tuple), so expiry never silently discards aggregated data.
			for _, r := range ent.op.ProcessWatermark(stream.MaxTime) {
				k.results = append(k.results, KeyedResult[K, Out]{Key: key, Result: r})
			}
			delete(k.ops, key)
			continue
		}
		ent.wake = ent.op.nextWake()
		live = append(live, key)
	}
	k.order = live
	if k.spill != nil {
		k.enforceBudget(wm)
	}
}

// ProcessBatch ingests a whole arrival-ordered batch of events and watermarks
// and returns every result it caused. The returned slice is reused across
// calls.
//
// On the slice-major representation results arrive in arrival order: a
// watermark's rows — the update rows late tuples marked since the previous
// one, then its triggers — where the watermark stood. On the per-key one,
// events are grouped by key — one scratch-map lookup per key-run rather than
// one per tuple — and each key's sub-batch is handed to its aggregator's
// ProcessBatch, so the per-key fast path sees maximal runs; watermarks
// segment the batch (all events before a watermark are flushed to their keys
// first, then the watermark is broadcast), and results arrive grouped by key
// (keys in first-appearance order within each segment), not interleaved in
// per-tuple arrival order. On both, the set of results and every per-key
// subsequence match the per-element path exactly.
//
//slicelint:hotpath
func (k *Keyed[K, V, A, Out]) ProcessBatch(batch []stream.Item[V]) []KeyedResult[K, Out] {
	if k.sm != nil {
		return k.sm.processBatch(batch)
	}
	k.results = k.results[:0]
	for len(batch) > 0 {
		if batch[0].Kind != stream.KindEvent {
			k.broadcastWatermark(batch[0].Watermark)
			batch = batch[1:]
			continue
		}
		n := 1
		for n < len(batch) && batch[n].Kind == stream.KindEvent {
			n++
		}
		k.processEventSegment(batch[:n])
		batch = batch[n:]
	}
	return k.results
}

// processEventSegment groups an event-only segment by key and feeds each
// key's sub-batch to its aggregator. Grouping buffers are reused across
// segments; the scratch map is left empty for the next one.
func (k *Keyed[K, V, A, Out]) processEventSegment(seg []stream.Item[V]) {
	n := 0 // distinct keys in this segment
	var curKey K
	cur := -1
	for i := range seg {
		if k.tooLate(seg[i].Event.Time) {
			// Mirror the element path's keyed-layer late drop. No watermark
			// falls inside a segment, so one horizon serves all of it.
			k.dropped++
			continue
		}
		k.tuples++
		key := k.keyOf(seg[i].Event.Value)
		if cur < 0 || key != curKey {
			idx, ok := k.scratch[key]
			if !ok {
				idx = n
				n++
				if idx < len(k.runs) {
					k.runs[idx] = k.runs[idx][:0]
					k.runKeys[idx] = key
				} else {
					k.runs = append(k.runs, nil)
					k.runKeys = append(k.runKeys, key)
				}
				k.scratch[key] = idx
			}
			cur, curKey = idx, key
		}
		k.runs[cur] = append(k.runs[cur], seg[i])
	}
	for idx := 0; idx < n; idx++ {
		key := k.runKeys[idx]
		delete(k.scratch, key)
		items := k.runs[idx]
		ent := k.ops[key]
		if ent == nil {
			ent = k.entry(key)
		} else {
			k.ready(key, ent)
		}
		for i := range items {
			if t := items[i].Event.Time; t > ent.lastSeen {
				ent.lastSeen = t
			}
		}
		for _, r := range ent.op.ProcessBatch(items) {
			k.results = append(k.results, KeyedResult[K, Out]{Key: key, Result: r})
		}
		ent.wake = stream.MinTime
	}
}

// Stats reports the operator statistics. Tuples and Dropped are counted at
// the keyed layer and exact on both representations — Dropped is every tuple
// at or behind currWM-lateness, whichever key it names; the slicing counters
// are summed over the resident per-key operators (spilled keys' rejoin the
// sum when they re-hydrate; the slice-major ring reports its slice count and
// never splits, merges or recomputes).
func (k *Keyed[K, V, A, Out]) Stats() Stats {
	if k.sm != nil {
		return k.sm.stats()
	}
	total := Stats{Tuples: k.tuples, Dropped: k.dropped}
	for _, ent := range k.ops {
		if ent.op == nil {
			continue
		}
		s := ent.op.Stats()
		total.Slices += s.Slices
		total.Splits += s.Splits
		total.Merges += s.Merges
		total.Recomputes += s.Recomputes
		total.Shifts += s.Shifts
	}
	return total
}

// SliceSnapshot copies the shared slice ring's layout for debug endpoints:
// bounds, tuples and keys present per slice. It is empty on the per-key
// representation, where every key has a ring of its own.
func (k *Keyed[K, V, A, Out]) SliceSnapshot() []SliceInfo {
	if k.sm == nil {
		return []SliceInfo{}
	}
	return k.sm.sliceSnapshot()
}

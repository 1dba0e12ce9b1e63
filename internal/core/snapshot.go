package core

import (
	"errors"
	"fmt"

	"scotty/internal/checkpoint"
	"scotty/internal/daba"
	"scotty/internal/fat"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// ErrSnapshotMismatch reports a structurally valid snapshot that does not
// belong to the operator it is being restored into: different query set,
// different partial-aggregate type, or different keyed configuration.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match operator configuration")

// Per-query state discriminators in the snapshot payload.
const (
	queryStateNone = byte(iota) // stateless context-free definition
	queryStateCF                // stateful context-free definition (trigger cursor)
	queryStateCtx               // context-aware: serialized window context

	// queryStateSeeded is or-ed into the discriminator of a query whose
	// update floor was raised by seedWatermark (query.seeded).
	queryStateSeeded = byte(0x80)
)

// pendingFirst is or-ed into a marked window's measure byte when the mark
// announces the window (pendingUpdate.first).
const pendingFirst = byte(0x80)

// Snapshot serializes the aggregator's complete mutable state — the slice
// ring with partial aggregates (and stored tuples when the Fig 4 decision
// demands them), the watermark, pending slicer edges, and every context-aware
// query's context state — into a framed checkpoint snapshot.
//
// The partial-aggregate type A (and, when tuples are stored, the payload type
// V) must have a registered checkpoint codec; ErrNoCodec names the missing
// one otherwise.
func (ag *Aggregator[V, A, Out]) Snapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	if err := ag.encodeState(enc); err != nil {
		return nil, err
	}
	return enc.Seal(), nil
}

// Restore loads a snapshot produced by Snapshot into this aggregator. The
// receiver must be freshly constructed with the same Options and the same
// AddQuery sequence as the snapshotted operator; mismatches are detected and
// reported as ErrSnapshotMismatch, corrupted data as
// checkpoint.ErrCorruptSnapshot. After a successful restore the aggregator
// behaves identically to the snapshotted one for any suffix stream.
func (ag *Aggregator[V, A, Out]) Restore(data []byte) error {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	if err := ag.decodeState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// describeQuery is the self-description recorded per query for restore-time
// validation: the window definition's measure and printed form.
func describeQuery(def window.Definition) string {
	return fmt.Sprintf("%v:%v", def.Measure(), def)
}

// encodeState appends the aggregator's state to enc (no framing), so it can
// be embedded both in a standalone snapshot and in a Keyed composite.
func (ag *Aggregator[V, A, Out]) encodeState(enc *checkpoint.Encoder) error {
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return err
	}
	evC, evErr := checkpoint.For[V]()

	enc.String(aggC.Name)
	enc.Int64(ag.currWM)
	enc.Int64(int64(ag.evictCountdown))

	enc.Int64(int64(len(ag.dynamicTimeEdges)))
	for _, e := range ag.dynamicTimeEdges {
		enc.Int64(e)
	}
	enc.Int64(int64(len(ag.pendingUpdates)))
	for _, u := range ag.pendingUpdates {
		enc.Int(u.id)
		meas := byte(u.meas)
		if u.first {
			meas |= pendingFirst
		}
		enc.Byte(meas)
		enc.Int64(u.span.Start)
		enc.Int64(u.span.End)
	}

	enc.Int(len(ag.queries))
	for _, q := range ag.queries {
		enc.Int(q.id)
		enc.String(describeQuery(q.def))
		enc.Int64(q.updFloor)
		var seeded byte
		if q.seeded {
			seeded = queryStateSeeded
		}
		if q.ctx != nil {
			// Context-aware: the context holds the mutable state.
			ss, ok := q.ctx.(window.StateSnapshot)
			if !ok {
				return fmt.Errorf("core: context of query %d (%v) does not implement window.StateSnapshot", q.id, q.def)
			}
			enc.Byte(queryStateCtx)
			ss.SnapshotState(enc)
		} else if ss, ok := q.cf.(window.StateSnapshot); ok {
			// Context-free but stateful (periodic trigger cursors).
			enc.Byte(queryStateCF | seeded)
			ss.SnapshotState(enc)
		} else {
			enc.Byte(queryStateNone | seeded)
		}
	}

	st := ag.st
	enc.Bool(st.keepTuples)
	enc.Int64(st.totalCount)
	enc.Int64(st.maxSeen)
	enc.Int(len(st.slices))
	for _, s := range st.slices {
		enc.Int64(s.Start)
		enc.Int64(s.End)
		enc.Int64(s.CStart)
		enc.Int64(s.TFirst)
		enc.Int64(s.TLast)
		enc.Int64(s.N)
		aggC.Encode(enc, s.Agg)
		enc.Int64(int64(len(s.Events)))
		if len(s.Events) > 0 {
			if evErr != nil {
				return evErr
			}
			for _, ev := range s.Events {
				enc.Int64(ev.Time)
				enc.Int64(ev.Seq)
				evC.Encode(enc, ev.Value)
			}
		}
	}

	// DABA rings travel verbatim — deque contents in their current
	// (partially converted) form plus the region pointers — so restored
	// emissions are bit-identical to the snapshotted operator's. Rebuilding
	// by re-pushing partials would re-associate floating-point combines.
	if ag.opts.Store == StoreDABA {
		enc.Int(len(ag.dabaRings))
		for _, d := range ag.dabaRings {
			enc.Int(d.qid)
			enc.Int64(d.frontStart)
			enc.Int64(d.next)
			enc.Int64(d.n)
			live := d.meta[d.mhead:]
			enc.Int(len(live))
			for _, sp := range live {
				enc.Int64(sp.end)
				enc.Int64(sp.n)
			}
			ws := d.win.State()
			enc.Int(len(ws.Buf))
			for _, a := range ws.Buf {
				aggC.Encode(enc, a)
			}
			enc.Int(ws.L)
			enc.Int(ws.R)
			enc.Int(ws.A)
			enc.Int(ws.B)
			aggC.Encode(enc, ws.MidSum)
			aggC.Encode(enc, ws.BackSum)
		}
	}
	return nil
}

// decodeState restores state written by encodeState into a fresh aggregator.
func (ag *Aggregator[V, A, Out]) decodeState(dec *checkpoint.Decoder) error {
	if ag.st.totalCount > 0 || ag.currWM != stream.MinTime {
		return fmt.Errorf("%w: restore target has already ingested data", ErrSnapshotMismatch)
	}
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return err
	}
	evC, evErr := checkpoint.For[V]()

	if name := dec.String(); dec.Err() == nil && name != aggC.Name {
		return fmt.Errorf("%w: snapshot partial type %q, operator uses %q", ErrSnapshotMismatch, name, aggC.Name)
	}
	ag.currWM = dec.Int64()
	ag.evictCountdown = int(dec.Int64())

	ag.dynamicTimeEdges = ag.dynamicTimeEdges[:0]
	for i, n := 0, dec.Count(); i < n; i++ {
		ag.dynamicTimeEdges = append(ag.dynamicTimeEdges, dec.Int64())
	}
	ag.pendingUpdates = ag.pendingUpdates[:0]
	for i, n := 0, dec.Count(); i < n; i++ {
		id, meas := dec.Int(), dec.Byte()
		ag.pendingUpdates = append(ag.pendingUpdates, pendingUpdate{
			id:    id,
			meas:  stream.Measure(meas &^ pendingFirst),
			span:  window.Span{Start: dec.Int64(), End: dec.Int64()},
			first: meas&pendingFirst != 0,
		})
	}

	nq := dec.Count()
	if dec.Err() == nil && nq != len(ag.queries) {
		return fmt.Errorf("%w: snapshot has %d queries, operator has %d", ErrSnapshotMismatch, nq, len(ag.queries))
	}
	for i := 0; i < nq; i++ {
		q := ag.queries[i]
		id, desc, floor, kind := dec.Int(), dec.String(), dec.Int64(), dec.Byte()
		if dec.Err() != nil {
			return dec.Err()
		}
		q.updFloor = floor
		q.seeded = kind&queryStateSeeded != 0
		kind &^= queryStateSeeded
		if id != q.id || desc != describeQuery(q.def) || (kind == queryStateCtx) != (q.ctx != nil) {
			return fmt.Errorf("%w: query %d is %q in the snapshot, %q in the operator", ErrSnapshotMismatch, i, desc, describeQuery(q.def))
		}
		switch kind {
		case queryStateNone:
		case queryStateCtx:
			ss, ok := q.ctx.(window.StateSnapshot)
			if !ok {
				return fmt.Errorf("core: context of query %d (%v) does not implement window.StateSnapshot", q.id, q.def)
			}
			if err := ss.RestoreState(dec); err != nil {
				return err
			}
		case queryStateCF:
			ss, ok := q.cf.(window.StateSnapshot)
			if !ok {
				return fmt.Errorf("%w: query %d carries context-free state the operator's definition cannot load", ErrSnapshotMismatch, i)
			}
			if err := ss.RestoreState(dec); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown query state kind %d", checkpoint.ErrCorruptSnapshot, kind)
		}
	}

	st := ag.st
	keep := dec.Bool()
	total := dec.Int64()
	maxSeen := dec.Int64()
	ns := dec.Count()
	if dec.Err() != nil {
		return dec.Err()
	}
	if ns < 1 {
		return fmt.Errorf("%w: snapshot without an open slice", checkpoint.ErrCorruptSnapshot)
	}
	slices := make([]*Slice[V, A], 0, ns)
	for i := 0; i < ns; i++ {
		s := st.newSlice(0, 0, 0)
		s.Start = dec.Int64()
		s.End = dec.Int64()
		s.CStart = dec.Int64()
		s.TFirst = dec.Int64()
		s.TLast = dec.Int64()
		s.N = dec.Int64()
		a, err := aggC.Decode(dec)
		if err != nil {
			return err
		}
		s.Agg = a
		ne := dec.Count()
		if ne > 0 && evErr != nil {
			return evErr
		}
		for j := 0; j < ne; j++ {
			ev := stream.Event[V]{Time: dec.Int64(), Seq: dec.Int64()}
			v, err := evC.Decode(dec)
			if err != nil {
				return err
			}
			ev.Value = v
			s.Events = append(s.Events, ev)
		}
		slices = append(slices, s)
	}
	if err := dec.Err(); err != nil {
		return err
	}

	st.keepTuples = keep
	st.totalCount = total
	st.maxSeen = maxSeen
	st.replaceSlices(slices)

	if ag.opts.Store == StoreDABA {
		nr := dec.Count()
		if dec.Err() == nil && nr != len(ag.dabaRings) {
			return fmt.Errorf("%w: snapshot has %d DABA rings, operator has %d", ErrSnapshotMismatch, nr, len(ag.dabaRings))
		}
		for i := 0; i < nr; i++ {
			qid := dec.Int()
			if dec.Err() != nil {
				return dec.Err()
			}
			d := ag.dabaFor(qid)
			if d == nil {
				return fmt.Errorf("%w: snapshot carries a DABA ring for unknown query %d", ErrSnapshotMismatch, qid)
			}
			d.frontStart = dec.Int64()
			d.next = dec.Int64()
			d.n = dec.Int64()
			d.meta, d.mhead = d.meta[:0], 0
			for j, nm := 0, dec.Count(); j < nm; j++ {
				d.meta = append(d.meta, dabaSpan{end: dec.Int64(), n: dec.Int64()})
			}
			var ws daba.State[A]
			for j, nb := 0, dec.Count(); j < nb; j++ {
				a, err := aggC.Decode(dec)
				if err != nil {
					return err
				}
				ws.Buf = append(ws.Buf, a)
			}
			ws.L, ws.R, ws.A, ws.B = dec.Int(), dec.Int(), dec.Int(), dec.Int()
			var err error
			if ws.MidSum, err = aggC.Decode(dec); err != nil {
				return err
			}
			if ws.BackSum, err = aggC.Decode(dec); err != nil {
				return err
			}
			if err := dec.Err(); err != nil {
				return err
			}
			w := daba.Restore(ag.f.Identity(), ag.f.Combine, ws)
			if w == nil || w.Len() != len(d.meta) {
				return fmt.Errorf("%w: DABA ring state inconsistent", checkpoint.ErrCorruptSnapshot)
			}
			d.win = w
		}
	}

	// Derived state: the slicer's edge caches and the trigger wake positions
	// are recomputed from the restored queries and slices, and the shared
	// tuples counter is considered already published (a shared registry must
	// not re-count restored tuples).
	ag.tuplesPublished = total
	ag.refreshCFEdges()
	ag.refreshTriggerWake()
	return nil
}

// replaceSlices swaps in a restored slice sequence wholesale, releasing the
// previous ring and rebuilding the eager tree from the restored aggregates.
func (st *store[V, A, Out]) replaceSlices(slices []*Slice[V, A]) {
	for _, s := range st.buf[st.head:] {
		st.releaseSlice(s)
	}
	st.buf = append(st.buf[:0], slices...)
	st.head = 0
	st.refreshView()
	st.version++
	if st.eager {
		st.tree = fat.New(st.f.Combine, st.f.Identity())
		for _, s := range st.slices {
			st.tree.Push(s.Agg)
		}
	}
}

// ------------------------------------------------------------------ keyed ---

// Snapshot serializes the keyed operator: every live key's aggregator state
// plus the idle clocks, in deterministic first-appearance order. The key type
// K needs a registered checkpoint codec.
func (k *Keyed[K, V, A, Out]) Snapshot() ([]byte, error) {
	keyC, err := checkpoint.For[K]()
	if err != nil {
		return nil, err
	}
	enc := checkpoint.NewEncoder()
	if k.sm != nil {
		if err := k.sm.encodeState(enc, keyC); err != nil {
			return nil, err
		}
		return enc.Seal(), nil
	}
	enc.String(keyC.Name)
	enc.Int64(k.currWM)
	enc.Int64(k.idleTTL)
	enc.Int(len(k.order))
	for _, key := range k.order {
		keyC.Encode(enc, key)
		ent := k.ops[key]
		enc.Int64(ent.lastSeen)
		if ent.op != nil {
			if err := ent.op.encodeState(enc); err != nil {
				return nil, err
			}
			continue
		}
		// Cold key: its operator state already lives on disk as a framed
		// snapshot; splice the payload in verbatim. The keyed snapshot
		// format is identical whether or not a key happened to be spilled
		// when the checkpoint barrier arrived.
		blob, err := k.spill.store.Get(ent.file)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot of spilled key %v: %w", key, err)
		}
		payload, err := checkpoint.Payload(blob)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot of spilled key %v: %w", key, err)
		}
		enc.Raw(payload)
	}
	return enc.Seal(), nil
}

// Restore loads a keyed snapshot. The receiver must be freshly constructed
// with the same keyOf/newOp/idleTTL configuration; per-key aggregators are
// rebuilt through newOp and restored in place.
func (k *Keyed[K, V, A, Out]) Restore(data []byte) error {
	if k.Keys() > 0 {
		return fmt.Errorf("%w: restore target has live keys", ErrSnapshotMismatch)
	}
	keyC, err := checkpoint.For[K]()
	if err != nil {
		return err
	}
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	if k.sm != nil {
		if err := k.sm.decodeState(dec, keyC); err != nil {
			return err
		}
		return dec.Err()
	}
	if name := dec.String(); dec.Err() == nil && name != keyC.Name {
		if name == sliceMajorSnapshot || name == sliceMajorSnapshotV1 {
			return fmt.Errorf("%w: snapshot holds slice-major keyed state, operator keeps one operator per key", ErrSnapshotMismatch)
		}
		return fmt.Errorf("%w: snapshot key type %q, operator uses %q", ErrSnapshotMismatch, name, keyC.Name)
	}
	k.currWM = dec.Int64()
	if ttl := dec.Int64(); dec.Err() == nil && ttl != k.idleTTL {
		return fmt.Errorf("%w: snapshot idleTTL %d, operator uses %d", ErrSnapshotMismatch, ttl, k.idleTTL)
	}
	n := dec.Count()
	for i := 0; i < n; i++ {
		key, err := keyC.Decode(dec)
		if err != nil {
			return err
		}
		lastSeen := dec.Int64()
		op := k.newOp()
		if err := op.decodeState(dec); err != nil {
			return fmt.Errorf("key %v: %w", key, err)
		}
		k.ops[key] = &keyedEntry[V, A, Out]{op: op, lastSeen: lastSeen, wake: stream.MinTime}
		k.order = append(k.order, key)
		k.tuples += op.st.totalCount // what the live keys took in; expired keys' and drops are not in the payload
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if k.spill != nil {
		// Every restored key is resident again; blobs left by the
		// snapshotted incarnation (or a crash mid-spill) are stale. The
		// budget re-asserts itself at the next watermark broadcast.
		if err := k.spill.store.Clear(); err != nil {
			return err
		}
		k.spill.cold = 0
		k.spill.cursor = 0
		k.publishSpillGauges()
	}
	return nil
}

// sliceMajorSnapshot opens a slice-major keyed payload, where a per-key one
// carries the key codec's name: either layout offered to the other is told
// apart on the first field and refused. Version 2 appends the marked late
// windows; a version 1 payload is read as one with none.
const (
	sliceMajorSnapshot   = "keyed/slice-major/2"
	sliceMajorSnapshotV1 = "keyed/slice-major/1"
)

// encodeState writes the slice-major state: the key directory in
// first-appearance order with every key's cursors, then the slice ring with
// every live cell. Ids are renumbered by position in that order — emission
// depends on the order, never on the ids — so freed ids and the cells idle
// keys left behind do not travel.
func (s *sliceMajor[K, V, A, Out]) encodeState(enc *checkpoint.Encoder, keyC checkpoint.Codec[K]) error {
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return err
	}
	enc.String(sliceMajorSnapshot)
	enc.String(keyC.Name)
	enc.String(aggC.Name)
	enc.Int64(s.idleTTL)
	enc.Int64(s.lateness)
	enc.Int(len(s.qs))
	for i := range s.qs {
		enc.Int(s.qs[i].id)
		enc.String(s.qs[i].desc)
	}
	enc.Int64(s.currWM)
	enc.Int64(s.tuples)
	enc.Int64(s.dropped)
	enc.Int64(s.maxSeen)

	const unmapped = ^uint32(0)
	pos := make([]uint32, len(s.keys)) // id -> position in order
	for i := range pos {
		pos[i] = unmapped
	}
	queued := make([]bool, len(s.keys))
	for _, id := range s.fed {
		queued[id] = true
	}
	enc.Int(len(s.order))
	for i, id := range s.order {
		pos[id] = uint32(i)
		kk := &s.keys[id]
		keyC.Encode(enc, kk.key)
		enc.Int64(kk.maxSeen)
		enc.Bool(kk.behind)
		enc.Bool(queued[id])
		for _, c := range s.cur[int(id)*len(s.qs):][:len(s.qs)] {
			enc.Int64(c.nextEnd)
			enc.Int64(c.floor)
		}
	}

	enc.Int(len(s.ring))
	for _, sl := range s.ring {
		enc.Int64(sl.start)
		enc.Int64(sl.end)
		live := 0
		for i := range sl.cells {
			if c := &sl.cells[i]; pos[c.id] != unmapped && s.keys[c.id].gen == c.gen {
				live++
			}
		}
		enc.Int(live)
		for i := range sl.cells {
			if c := &sl.cells[i]; pos[c.id] != unmapped && s.keys[c.id].gen == c.gen {
				enc.Uint32(pos[c.id])
				enc.Int64(c.n)
				aggC.Encode(enc, c.a)
			}
		}
	}

	enc.Int(len(s.late))
	for _, l := range s.late {
		enc.Uint32(pos[l.id])
		enc.Int(int(l.q))
		enc.Int64(l.start)
		enc.Bool(l.first)
	}
	return nil
}

// decodeState restores state written by encodeState into a fresh operator.
func (s *sliceMajor[K, V, A, Out]) decodeState(dec *checkpoint.Decoder, keyC checkpoint.Codec[K]) error {
	aggC, err := checkpoint.For[A]()
	if err != nil {
		return err
	}
	tag := dec.String()
	if dec.Err() == nil && tag != sliceMajorSnapshot && tag != sliceMajorSnapshotV1 {
		return fmt.Errorf("%w: operator keeps slice-major keyed state, snapshot does not (it opens with %q)", ErrSnapshotMismatch, tag)
	}
	if name := dec.String(); dec.Err() == nil && name != keyC.Name {
		return fmt.Errorf("%w: snapshot key type %q, operator uses %q", ErrSnapshotMismatch, name, keyC.Name)
	}
	if name := dec.String(); dec.Err() == nil && name != aggC.Name {
		return fmt.Errorf("%w: snapshot partial type %q, operator uses %q", ErrSnapshotMismatch, name, aggC.Name)
	}
	if ttl, late := dec.Int64(), dec.Int64(); dec.Err() == nil && (ttl != s.idleTTL || late != s.lateness) {
		return fmt.Errorf("%w: snapshot idleTTL %d and lateness %d, operator uses %d and %d", ErrSnapshotMismatch, ttl, late, s.idleTTL, s.lateness)
	}
	nq := dec.Count()
	if dec.Err() == nil && nq != len(s.qs) {
		return fmt.Errorf("%w: snapshot has %d queries, operator has %d", ErrSnapshotMismatch, nq, len(s.qs))
	}
	for i := 0; i < nq; i++ {
		id, desc := dec.Int(), dec.String()
		if dec.Err() != nil {
			return dec.Err()
		}
		if q := &s.qs[i]; id != q.id || desc != q.desc {
			return fmt.Errorf("%w: query %d is %q in the snapshot, %q in the operator", ErrSnapshotMismatch, i, desc, q.desc)
		}
	}
	s.currWM = dec.Int64()
	s.tuples = dec.Int64()
	s.dropped = dec.Int64()
	s.maxSeen = dec.Int64()
	// The shared counters are considered already published, as in the
	// per-key restore: a registry must not re-count restored tuples.
	s.tuplesPublished = s.tuples

	nk := dec.Count()
	for i := 0; i < nk; i++ {
		key, err := keyC.Decode(dec)
		if err != nil {
			return err
		}
		id := uint32(i)
		kk := smKey[K]{key: key, maxSeen: dec.Int64(), seq: uint64(i), behind: dec.Bool()}
		if dec.Bool() {
			s.fed = append(s.fed, id)
		}
		for j := 0; j < nq; j++ {
			s.cur = append(s.cur, smCursor{nextEnd: dec.Int64(), floor: dec.Int64()})
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		s.keys = append(s.keys, kk)
		s.ids[key] = id
		s.order = append(s.order, id)
		s.idlesAfter(kk.maxSeen)
	}
	s.nextSeq = uint64(nk)
	if len(s.ids) != nk {
		return fmt.Errorf("%w: duplicate key in the directory", checkpoint.ErrCorruptSnapshot)
	}

	for i, ns := 0, dec.Count(); i < ns; i++ {
		sl := &smSlice[A]{start: dec.Int64(), end: dec.Int64()}
		nc := dec.Count()
		size := smMinTable
		for size < nc*2 {
			size *= 2
		}
		sl.setTable(size)
		for j := 0; j < nc; j++ {
			c := smCell[A]{id: dec.Uint32(), n: dec.Int64()}
			if c.a, err = aggC.Decode(dec); err != nil {
				return err
			}
			if dec.Err() != nil {
				return dec.Err()
			}
			if int(c.id) >= nk || sl.find(c.id) >= 0 {
				return fmt.Errorf("%w: slice cell names key %d of %d", checkpoint.ErrCorruptSnapshot, c.id, nk)
			}
			sl.cells = append(sl.cells, c)
			sl.index(j)
			sl.n += c.n
		}
		if n := len(s.ring); dec.Err() == nil && (sl.start >= sl.end || n > 0 && sl.start < s.ring[n-1].end) {
			return fmt.Errorf("%w: slice [%d,%d) out of order", checkpoint.ErrCorruptSnapshot, sl.start, sl.end)
		}
		s.ring = append(s.ring, sl)
	}
	if tag == sliceMajorSnapshot {
		for i, n := 0, dec.Count(); i < n; i++ {
			l := smLate{id: dec.Uint32(), q: int32(dec.Int()), start: dec.Int64(), first: dec.Bool()}
			if dec.Err() == nil && (int(l.id) >= nk || l.q < 0 || int(l.q) >= nq) {
				return fmt.Errorf("%w: late mark names key %d of %d, query %d of %d", checkpoint.ErrCorruptSnapshot, l.id, nk, l.q, nq)
			}
			s.late = append(s.late, l)
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if s.currWM != stream.MinTime {
		s.nextDue = s.dueAfter(s.currWM)
	}
	return nil
}

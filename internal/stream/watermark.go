package stream

// Watermarker generates periodic low watermarks for an arrival-ordered
// stream, mirroring the periodic watermark assigners of dataflow systems: a
// watermark is emitted every Period milliseconds of observed event time and
// carries the maximum observed timestamp minus Lag.
//
// Watermark emission is aligned to the first observed timestamp: the first
// watermark is placed on the first Period boundary after firstTS-Lag (never
// below Period), and boundaries advance from there. Aligning to the stream
// start instead of to event time zero keeps the prepared stream O(events)
// for arbitrary timestamp origins — a stream of epoch-millisecond events
// would otherwise begin with ~1.7 billion catch-up watermarks covering the
// decades between 1970 and the first event.
type Watermarker struct {
	// Period is the event-time distance between consecutive watermarks.
	Period int64
	// Lag is subtracted from the maximum observed timestamp: a watermark wm
	// falls due once maxTS - Lag >= wm, so it may equal the time of an
	// event Lag behind the newest. Only a Lag strictly larger than the
	// maximum out-of-order delay keeps every event ahead of the watermark
	// (events that still arrive at or behind it are "late" and handled by
	// allowed lateness); callers add 1 to the largest delay for that.
	Lag int64
}

// firstBoundary returns the first multiple of period strictly greater than
// ts-lag, clamped to at least period (so streams that start near time zero
// keep their historical watermark sequence). Floor division keeps the
// boundary arithmetic correct for negative timestamps.
func (w Watermarker) firstBoundary(ts int64) int64 {
	q := floorDiv(ts-w.Lag, w.Period)
	next := (q + 1) * w.Period
	if next < w.Period {
		return w.Period
	}
	return next
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Prepare interleaves periodic watermarks with an arrival-ordered event
// stream and appends a final watermark at MaxTime so that every window is
// eventually emitted. The result is the replayable input of the benchmark
// drivers.
func Prepare[V any](w Watermarker, events []Event[V]) []Item[V] {
	items := make([]Item[V], 0, len(events)+len(events)/16+1)
	f := NewFeeder[V](w)
	for _, e := range events {
		items = f.Feed(items, e)
	}
	return f.Close(items)
}

// Feeder is the incremental form of Prepare for sources that cannot be
// materialized up front (e.g. a CSV stream on stdin): feed arriving events
// one at a time and receive them back interleaved with the periodic
// watermarks that became due.
//
// A source that writes its own items uses the primitives Feed is built from,
// which keep the schedule in one place and cost an in-order event one
// comparison: an event newer than Newest is passed to Advance, and when that
// reports a watermark due, Due pops the due ones in order — all of them
// belong in front of the event.
type Feeder[V any] struct {
	w      Watermarker
	maxTS  int64
	nextWM int64 // 0 until the first Due aligns it to the first event
}

// NewFeeder creates a Feeder emitting watermarks per w's schedule.
func NewFeeder[V any](w Watermarker) *Feeder[V] {
	return &Feeder[V]{w: w, maxTS: MinTime}
}

// Feed appends any watermarks due before e, then e itself, to items and
// returns the extended slice (append-style, so callers can reuse one
// buffer).
func (f *Feeder[V]) Feed(items []Item[V], e Event[V]) []Item[V] {
	if e.Time > f.Newest() && f.Advance(e.Time) {
		for wm, ok := f.Due(); ok; wm, ok = f.Due() {
			items = append(items, WatermarkItem[V](wm))
		}
	}
	return append(items, EventItem(e))
}

// Newest is the latest event time passed to Advance (MinTime before any).
// An event at it or after it is in order; one before it is late.
func (f *Feeder[V]) Newest() int64 { return f.maxTS }

// Advance records t, the time of an event newer than Newest, and reports
// whether a watermark has fallen due; Due then pops it and any after it.
func (f *Feeder[V]) Advance(t int64) bool {
	f.maxTS = t
	return f.w.Period > 0 && (f.nextWM == 0 || t-f.w.Lag >= f.nextWM)
}

// Due pops the next watermark the newest event time has made due, if any.
// The first call after the first Advance aligns the schedule to that event
// (Watermarker's firstBoundary).
func (f *Feeder[V]) Due() (int64, bool) {
	if f.w.Period <= 0 || f.maxTS == MinTime {
		return 0, false
	}
	if f.nextWM == 0 {
		f.nextWM = f.w.firstBoundary(f.maxTS)
	}
	if f.maxTS-f.w.Lag < f.nextWM {
		return 0, false
	}
	wm := f.nextWM
	f.nextWM += f.w.Period
	return wm, true
}

// Close appends the final MaxTime watermark that flushes every window.
func (f *Feeder[V]) Close(items []Item[V]) []Item[V] {
	return append(items, WatermarkItem[V](MaxTime))
}

// EventsOnly strips watermarks from a prepared stream.
func EventsOnly[V any](items []Item[V]) []Event[V] {
	out := make([]Event[V], 0, len(items))
	for _, it := range items {
		if it.Kind == KindEvent {
			out = append(out, it.Event)
		}
	}
	return out
}

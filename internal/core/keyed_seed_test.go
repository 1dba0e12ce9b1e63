package core

import (
	"fmt"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// lateKeyed builds the fixture for the watermark-seeding regression tests:
// tumbling(100) sums with 50ms allowed lateness, optionally with idle expiry.
func lateKeyed(idleTTL int64) *Keyed[int, kv, float64, float64] {
	return NewKeyed(func(v kv) int { return v.Key }, idleTTL, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 50})
		ag.MustAddQuery(window.Tumbling(stream.Time, 100))
		return ag
	})
}

// driver abstracts the element and batch ingestion paths so every seeding
// regression runs against both (the bug lived in entry(), which both share,
// but the late-drop guards are separate code paths).
type driver struct {
	name string
	feed func(k *Keyed[int, kv, float64, float64], items []stream.Item[kv]) []KeyedResult[int, float64]
}

func drivers() []driver {
	return []driver{
		{"element", func(k *Keyed[int, kv, float64, float64], items []stream.Item[kv]) []KeyedResult[int, float64] {
			var out []KeyedResult[int, float64]
			for _, it := range items {
				if it.Kind == stream.KindEvent {
					out = append(out, k.ProcessElement(it.Event)...)
				} else {
					out = append(out, k.ProcessWatermark(it.Watermark)...)
				}
			}
			return out
		}},
		{"batch", func(k *Keyed[int, kv, float64, float64], items []stream.Item[kv]) []KeyedResult[int, float64] {
			return append([]KeyedResult[int, float64](nil), k.ProcessBatch(items)...)
		}},
	}
}

func ev(key int, t int64, v float64) stream.Item[kv] {
	return stream.Item[kv]{Kind: stream.KindEvent, Event: stream.Event[kv]{Time: t, Value: kv{Key: key, V: v}}}
}

func wm[V any](t int64) stream.Item[V] {
	return stream.Item[V]{Kind: stream.KindWatermark, Watermark: t}
}

func byKey(rs []KeyedResult[int, float64], key int) []string {
	var out []string
	for _, r := range rs {
		if r.Key == key {
			out = append(out, fmt.Sprintf("[%d,%d) n=%d v=%g upd=%v", r.Start, r.End, r.N, r.Value, r.Update))
		}
	}
	return out
}

func wantResults(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results %v, want %v", name, len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: result %d = %q, want %q", name, i, got[i], want[i])
		}
	}
}

// TestKeyedLateNewKey is the headline regression: a key first seen after
// watermark W must start at W, not at MinTime. Pre-fix, key 3's fresh
// operator treated its within-lateness tuple as in-order and replayed
// windows from position zero (empty [0,100) and [100,200) finals the
// watermark had long passed), and key 2's genuinely-too-late tuple
// materialized an operator that emitted [100,200) as a fresh final.
func TestKeyedLateNewKey(t *testing.T) {
	for _, d := range drivers() {
		t.Run(d.name, func(t *testing.T) {
			k := lateKeyed(0)

			// Key 1 carries the watermark forward.
			rs := d.feed(k, []stream.Item[kv]{ev(1, 10, 1), wm[kv](250)})
			wantResults(t, "key 1 warmup", byKey(rs, 1), []string{"[0,100) n=1 v=1 upd=false"})

			// Key 2: first tuple is beyond the lateness horizon (120 <= 250-50).
			// It must be dropped at the keyed layer without materializing a key.
			rs = d.feed(k, []stream.Item[kv]{ev(2, 120, 7)})
			wantResults(t, "key 2 too-late", byKey(rs, 2), nil)
			if k.Keys() != 1 {
				t.Errorf("too-late first tuple materialized a key: Keys() = %d, want 1", k.Keys())
			}
			if got := k.Stats().Dropped; got != 1 {
				t.Errorf("Stats().Dropped = %d, want 1", got)
			}

			// Key 3: first tuple at 230 is within lateness of wm 250. The new
			// operator starts at the keyed watermark: only windows ending
			// after 250 may emit, so the sole result is [200,300).
			rs = d.feed(k, []stream.Item[kv]{ev(3, 230, 5), wm[kv](400)})
			wantResults(t, "key 3 seeded", byKey(rs, 3), []string{"[200,300) n=1 v=5 upd=false"})
			wantResults(t, "key 2 still absent", byKey(rs, 2), nil)

			// Final drain adds nothing for key 3 (its only window is emitted)
			// and must not resurrect key 2.
			rs = d.feed(k, []stream.Item[kv]{wm[kv](stream.MaxTime)})
			wantResults(t, "final drain key 3", byKey(rs, 3), nil)
			wantResults(t, "final drain key 2", byKey(rs, 2), nil)
		})
	}
}

// TestKeyedExpireThenReappear covers the second half of the headline bug: a
// key whose operator was idle-expired (drained with a synthetic MaxTime
// watermark) and then reappears. The re-created operator must resume at the
// keyed watermark — pre-fix it replayed [0,100) as an empty final, silently
// clobbering the drained final that carried data.
func TestKeyedExpireThenReappear(t *testing.T) {
	for _, d := range drivers() {
		t.Run(d.name, func(t *testing.T) {
			k := lateKeyed(100) // expire after 100ms idle (+ lateness 50)

			// Key 1's tuple at t=10 is drained when wm 250 finds the key idle
			// (250 - 10 > 100 + 50): the drain emits [0,100) with the data.
			rs := d.feed(k, []stream.Item[kv]{ev(1, 10, 3), wm[kv](250)})
			wantResults(t, "drain", byKey(rs, 1), []string{"[0,100) n=1 v=3 upd=false"})
			if k.Keys() != 0 {
				t.Fatalf("key not expired: Keys() = %d, want 0", k.Keys())
			}

			// Key 1 reappears at t=260 (in order). The fresh operator must
			// start at wm 250: its only emission is [200,300), never a
			// replayed [0,100) or [100,200).
			rs = d.feed(k, []stream.Item[kv]{ev(1, 260, 9), wm[kv](400)})
			wantResults(t, "reappear", byKey(rs, 1), []string{"[200,300) n=1 v=9 upd=false"})

			rs = d.feed(k, []stream.Item[kv]{wm[kv](stream.MaxTime)})
			wantResults(t, "final drain", byKey(rs, 1), nil)
		})
	}
}

// TestKeyedLateOnlyKeyStaysAbsent pins the idle-expiry pathology fix: a key
// fed exclusively too-late data must be dropped at the keyed layer without
// materializing an operator. Pre-fix every such tuple re-created the key and
// the next watermark re-drained it, emitting garbage finals each round.
func TestKeyedLateOnlyKeyStaysAbsent(t *testing.T) {
	for _, d := range drivers() {
		t.Run(d.name, func(t *testing.T) {
			k := lateKeyed(100)

			rs := d.feed(k, []stream.Item[kv]{ev(1, 10, 1), wm[kv](400)})
			wantResults(t, "warmup", byKey(rs, 1), []string{"[0,100) n=1 v=1 upd=false"})

			// Key 2 sees only too-late tuples across several watermarks.
			var drops int64
			items := []stream.Item[kv]{}
			for i := 0; i < 5; i++ {
				items = append(items, ev(2, 300, 1), ev(2, 310, 1), wm[kv](500+int64(i)*100))
				drops += 2
			}
			rs = d.feed(k, items)
			wantResults(t, "late-only key", byKey(rs, 2), nil)
			if got := k.Stats().Dropped; got != drops {
				t.Errorf("Stats().Dropped = %d, want %d", got, drops)
			}
			if k.Keys() != 0 { // key 1 expired along the way; key 2 never existed
				t.Errorf("Keys() = %d, want 0", k.Keys())
			}
		})
	}
}

// TestKeyedSeededKeySkipsOriginSlices pins the slicer half of the seeding
// fix: a fresh operator's open slice starts at the stream origin, so before
// the fix a key first seen at watermark W cut one empty slice per elapsed
// window edge — O(W/slide) work and buffer slack for every late-created key.
// The seeded slicer must begin at the lateness horizon instead, so the store
// holds a handful of slices, not a thousand.
func TestKeyedSeededKeySkipsOriginSlices(t *testing.T) {
	for _, d := range drivers() {
		t.Run(d.name, func(t *testing.T) {
			// The session member keeps the operator on the per-key
			// representation, where a key owns a slicer to seed (a
			// tumbling-only set shares one slice ring, which has no origin
			// to backfill from). Its rows are left out of the comparison.
			k := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
				ag := New(keyedSum(), Options{Lateness: 50})
				ag.MustAddQuery(window.Tumbling(stream.Time, 100))
				ag.MustAddQuery(window.Session[kv](30))
				return ag
			})
			tumbling := func(rs []KeyedResult[int, float64]) []KeyedResult[int, float64] {
				var out []KeyedResult[int, float64]
				for _, r := range rs {
					if r.Query == 0 {
						out = append(out, r)
					}
				}
				return out
			}

			// Key 1 drags the watermark 1000 windows downstream.
			d.feed(k, []stream.Item[kv]{ev(1, 10, 1), wm[kv](100_000)})

			// Key 2 materializes now; its slicer must not backfill
			// [0,100), [100,200), ... up to the first tuple.
			rs := tumbling(d.feed(k, []stream.Item[kv]{ev(2, 100_010, 4), wm[kv](100_200)}))
			wantResults(t, "seeded emission", byKey(rs, 2), []string{"[100000,100100) n=1 v=4 upd=false"})

			ent, ok := k.ops[2]
			if !ok {
				t.Fatal("key 2 not materialized")
			}
			if n := ent.op.st.Len(); n > 4 {
				t.Errorf("seeded key holds %d slices, want a handful — slicer backfilled from the origin", n)
			}
			if start := ent.op.st.slices[0].Start; start < 100_000-50 {
				t.Errorf("first slice starts at %d, want >= lateness horizon %d", start, 100_000-50)
			}
		})
	}
}

// TestBehindWatermarkTupleIsLate is the regression test for a tuple that leads
// its operator's stream but trails the watermark — a key of a Keyed operator
// that was silent while other keys advanced the broadcast watermark. The
// operator used to judge "in order" against its own maxSeen alone and fold the
// tuple through the in-order pipeline: no update row for the announced window
// it lands in, no lateness horizon.
func TestBehindWatermarkTupleIsLate(t *testing.T) {
	feeds := map[string]func(*Aggregator[float64, float64, float64], []stream.Item[float64]) []Result[float64]{
		"element": func(ag *Aggregator[float64, float64, float64], items []stream.Item[float64]) []Result[float64] {
			var out []Result[float64]
			for _, it := range items {
				if it.Kind == stream.KindEvent {
					out = append(out, ag.ProcessElement(it.Event)...)
				} else {
					out = append(out, ag.ProcessWatermark(it.Watermark)...)
				}
			}
			return out
		},
		"batch": func(ag *Aggregator[float64, float64, float64], items []stream.Item[float64]) []Result[float64] {
			return append([]Result[float64](nil), ag.ProcessBatch(items)...)
		},
	}
	e := func(t int64, v float64) stream.Item[float64] {
		return stream.EventItem(stream.Event[float64]{Time: t, Seq: t, Value: v})
	}
	for name, feed := range feeds {
		t.Run(name, func(t *testing.T) {
			ag := New[float64](aggregate.Sum[float64](ident), Options{Lateness: 200})
			ag.MustAddQuery(window.Tumbling(stream.Time, 100))
			var rows []string
			for _, r := range feed(ag, []stream.Item[float64]{
				e(10, 1), wm[float64](250), // announces [0,100) n=1
				e(60, 2),            // leads the stream (60 >= 10), trails the watermark: corrects [0,100)
				e(40, 4),            // 40 <= 250-200: beyond the lateness horizon
				e(70, 8), e(80, 16), // a run behind the watermark must not take the batch fast path
				wm[float64](stream.MaxTime),
			}) {
				rows = append(rows, fmt.Sprintf("[%d,%d) n=%d v=%g upd=%v", r.Start, r.End, r.N, r.Value, r.Update))
			}
			// The three accepted late tuples correct [0,100) once, at the
			// next watermark.
			wantResults(t, "rows", rows, []string{
				"[0,100) n=1 v=1 upd=false",
				"[0,100) n=4 v=27 upd=true",
			})
			if got := ag.Stats().Dropped; got != 1 {
				t.Errorf("Stats().Dropped = %d, want the one tuple beyond the horizon", got)
			}
		})
	}
}

// TestKeyedSilentKeyLateTuple is the same defect where users met it: on both
// representations, a key's tuple behind the stream's watermark corrects the
// window announced for that key, and one in a window that closed before the
// key existed announces it.
func TestKeyedSilentKeyLateTuple(t *testing.T) {
	for _, perKey := range []bool{false, true} {
		for _, d := range drivers() {
			t.Run(fmt.Sprintf("perKey=%v/%s", perKey, d.name), func(t *testing.T) {
				k := newKeyedSum(t, []periodicDef{{1000, 1000}}, perKey, 0)
				periodic := func(rs []KeyedResult[int, float64], key int) []string {
					var out []KeyedResult[int, float64]
					for _, r := range rs {
						if r.Query == 0 {
							out = append(out, r)
						}
					}
					return byKey(out, key)
				}
				// Key 2 drives the watermark to 3000; key 1 spoke once, at 100.
				rs := d.feed(k, []stream.Item[kv]{ev(1, 100, 1), ev(2, 5001, 1), wm[kv](1000), wm[kv](2000), wm[kv](3000)})
				wantResults(t, "announced", periodic(rs, 1), []string{"[0,1000) n=1 v=1 upd=false"})
				// 1500 leads key 1's stream, trails the watermark, and lands in
				// a window not announced for the key (it trails one window
				// length behind its last tuple): nothing now, the regular row
				// at the next watermark. A late tuple emits nothing before
				// that watermark on either representation.
				rs = d.feed(k, []stream.Item[kv]{ev(1, 1500, 2)})
				wantResults(t, "unannounced window", periodic(rs, 1), nil)
				// 3100 is ahead of the watermark. Both representations know
				// the window is unannounced (the per-key operator by its
				// trigger cursor) and send no correction ahead of its row.
				rs = d.feed(k, []stream.Item[kv]{ev(1, 3100, 4), wm[kv](3500)})
				wantResults(t, "caught up", periodic(rs, 1), []string{"[1000,2000) n=1 v=2 upd=false", "[2000,3000) n=0 v=0 upd=false"})
				rs = d.feed(k, []stream.Item[kv]{ev(1, 1900, 8), wm[kv](3520)})
				wantResults(t, "correction", periodic(rs, 1), []string{"[1000,2000) n=2 v=10 upd=true"})
				// Key 3 appears at 1600, behind the watermark: [1000,2000)
				// closed before it existed and is announced at the next
				// watermark, once, with both of its tuples.
				rs = d.feed(k, []stream.Item[kv]{ev(3, 1600, 16), ev(3, 1700, 32), wm[kv](3540)})
				wantResults(t, "late-born key", periodic(rs, 3), []string{"[1000,2000) n=2 v=48 upd=false"})
				if st := k.Stats(); st.Tuples != 7 || st.Dropped != 0 {
					t.Errorf("stats %+v, want 7 tuples and no drops", st)
				}
			})
		}
	}
}

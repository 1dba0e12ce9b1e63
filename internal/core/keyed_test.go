package core

import (
	"math/rand"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/checkpoint"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

type kv struct {
	Key int
	V   float64
}

// A per-key operator that stores tuples snapshots them (a session among other
// queries under disorder, for one).
func init() {
	checkpoint.Register("core.kv",
		func(e *checkpoint.Encoder, v kv) { e.Int(v.Key); e.Float64(v.V) },
		func(d *checkpoint.Decoder) (kv, error) { return kv{Key: d.Int(), V: d.Float64()}, d.Err() })
}

func keyedSum() aggregate.Function[kv, float64, float64] {
	return aggregate.Sum(func(t kv) float64 { return t.V })
}

func TestKeyedMatchesPerKeyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const keys = 5
	var events []stream.Event[kv]
	ts := int64(0)
	for i := 0; i < 3000; i++ {
		ts += int64(1 + rng.Intn(20))
		events = append(events, stream.Event[kv]{
			Time: ts, Seq: int64(i),
			Value: kv{Key: rng.Intn(keys), V: float64(rng.Intn(100))},
		})
	}
	d := stream.Disorder{Fraction: 0.2, MaxDelay: 400, Seed: 65}
	items := stream.Prepare(stream.Watermarker{Period: 200, Lag: 401}, stream.Apply(d, events))

	op := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 1 << 40})
		ag.MustAddQuery(window.Sliding(stream.Time, 500, 200))
		return ag
	})

	type fkey struct {
		key        int
		start, end int64
	}
	finals := map[fkey]KeyedResult[int, float64]{}
	for _, it := range items {
		var rs []KeyedResult[int, float64]
		if it.Kind == stream.KindEvent {
			rs = op.ProcessElement(it.Event)
		} else {
			rs = op.ProcessWatermark(it.Watermark)
		}
		for _, r := range rs {
			finals[fkey{r.Key, r.Start, r.End}] = r
		}
	}

	// Per-key oracle over the per-key sub-streams.
	f := keyedSum()
	for key := 0; key < keys; key++ {
		var sub []stream.Event[kv]
		for _, e := range events {
			if e.Value.Key == key {
				sub = append(sub, e)
			}
		}
		want := reference.Finals(f, reference.Query[kv]{Kind: reference.Periodic, Measure: stream.Time, Length: 500, Slide: 200}, sub, stream.MaxTime)
		for _, w := range want {
			got, ok := finals[fkey{key, w.Start, w.End}]
			if !ok {
				t.Fatalf("key %d: missing window [%d,%d)", key, w.Start, w.End)
			}
			if !approx(got.Value, w.Value) || got.N != w.N {
				t.Fatalf("key %d window [%d,%d): got (%v,%d) want (%v,%d)",
					key, w.Start, w.End, got.Value, got.N, w.Value, w.N)
			}
		}
	}
}

// TestKeyedWatermarkEmissionOrderIsDeterministic replays the same stream
// twice and requires identical result sequences: watermark broadcasts must
// iterate keys in first-appearance order, not map order.
func TestKeyedWatermarkEmissionOrderIsDeterministic(t *testing.T) {
	replay := func() []KeyedResult[int, float64] {
		op := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
			ag := New(keyedSum(), Options{Lateness: 0})
			ag.MustAddQuery(window.Tumbling(stream.Time, 100))
			return ag
		})
		var out []KeyedResult[int, float64]
		for i := int64(0); i < 2000; i++ {
			e := stream.Event[kv]{Time: i, Seq: i, Value: kv{Key: int(i * 7 % 13), V: 1}}
			out = append(out, op.ProcessElement(e)...)
			if i%100 == 99 {
				out = append(out, op.ProcessWatermark(i)...)
			}
		}
		out = append(out, op.ProcessWatermark(stream.MaxTime)...)
		return out
	}
	a, b := replay(), replay()
	if len(a) != len(b) {
		t.Fatalf("replays emitted %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestKeyedExpiresIdleKeys(t *testing.T) {
	op := NewKeyed(func(v kv) int { return v.Key }, 1000, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 100})
		ag.MustAddQuery(window.Tumbling(stream.Time, 100))
		return ag
	})
	op.ProcessElement(stream.Event[kv]{Time: 10, Value: kv{Key: 1, V: 1}})
	op.ProcessElement(stream.Event[kv]{Time: 20, Value: kv{Key: 2, V: 1}})
	if op.Keys() != 2 {
		t.Fatalf("keys = %d", op.Keys())
	}
	op.ProcessElement(stream.Event[kv]{Time: 5_000, Value: kv{Key: 1, V: 1}})
	op.ProcessWatermark(4_900)
	if op.Keys() != 1 {
		t.Fatalf("idle key not expired: %d live", op.Keys())
	}
	// The surviving key keeps working.
	op.ProcessElement(stream.Event[kv]{Time: 6_000, Value: kv{Key: 1, V: 2}})
	rs := op.ProcessWatermark(stream.MaxTime)
	if len(rs) == 0 {
		t.Fatal("surviving key emitted nothing")
	}
}

// TestKeyedExpiryDrainsUnemittedSessions is the regression test for idle-key
// expiry silently dropping state: a session whose gap exceeds the idle TTL
// used to be deleted with its final window still open. Expiry must drain the
// key first.
func TestKeyedExpiryDrainsUnemittedSessions(t *testing.T) {
	op := NewKeyed(func(v kv) int { return v.Key }, 500, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 0})
		ag.MustAddQuery(window.Session[kv](1000))
		return ag
	})
	op.ProcessElement(stream.Event[kv]{Time: 10, Seq: 1, Value: kv{Key: 1, V: 5}})
	op.ProcessElement(stream.Event[kv]{Time: 20, Seq: 2, Value: kv{Key: 1, V: 7}})
	// Key 2 keeps the stream alive while key 1 goes idle.
	op.ProcessElement(stream.Event[kv]{Time: 590, Seq: 3, Value: kv{Key: 2, V: 1}})
	// At wm=600 key 1 is expired (600-20 > 500) but its session window
	// [10, 1020) is not yet due (600 < 1019): the drain must emit it.
	rs := op.ProcessWatermark(600)
	if op.Keys() != 1 {
		t.Fatalf("idle key not expired: %d live", op.Keys())
	}
	found := false
	for _, r := range rs {
		if r.Key == 1 && r.N == 2 {
			found = true
			if !approx(r.Value, 12) {
				t.Fatalf("drained session value = %v want 12 (%+v)", r.Value, r)
			}
		}
	}
	if !found {
		t.Fatalf("expired key's unemitted session window was dropped; results: %+v", rs)
	}
}

// TestKeyedBatchEquivalence replays a keyed multi-query stream through
// ProcessBatch at several batch sizes and requires, per key, the exact result
// subsequence of the per-element path (the documented guarantee: batching may
// regroup results across keys but never within one).
func TestKeyedBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const keys = 7
	var events []stream.Event[kv]
	ts := int64(0)
	for i := 0; i < 4000; i++ {
		ts += int64(rng.Intn(15))
		events = append(events, stream.Event[kv]{
			Time: ts, Seq: int64(i),
			Value: kv{Key: rng.Intn(keys), V: float64(rng.Intn(100))},
		})
	}
	d := stream.Disorder{Fraction: 0.15, MaxDelay: 300, Seed: 78}
	items := stream.Prepare(stream.Watermarker{Period: 250, Lag: 301}, stream.Apply(d, events))

	mk := func() *Keyed[int, kv, float64, float64] {
		return NewKeyed(func(v kv) int { return v.Key }, 2000, func() *Aggregator[kv, float64, float64] {
			ag := New(keyedSum(), Options{Lateness: 1 << 40})
			ag.MustAddQuery(window.Sliding(stream.Time, 400, 150))
			ag.MustAddQuery(window.Session[kv](120))
			return ag
		})
	}

	perKey := func(rs []KeyedResult[int, float64]) map[int][]KeyedResult[int, float64] {
		m := map[int][]KeyedResult[int, float64]{}
		for _, r := range rs {
			m[r.Key] = append(m[r.Key], r)
		}
		return m
	}

	op := mk()
	var baseSeq []KeyedResult[int, float64]
	for _, it := range items {
		if it.Kind == stream.KindEvent {
			baseSeq = append(baseSeq, op.ProcessElement(it.Event)...)
		} else {
			baseSeq = append(baseSeq, op.ProcessWatermark(it.Watermark)...)
		}
	}
	base := perKey(baseSeq)

	for _, bs := range []int{1, 7, 256, len(items)} {
		op := mk()
		var seq []KeyedResult[int, float64]
		for i := 0; i < len(items); i += bs {
			j := i + bs
			if j > len(items) {
				j = len(items)
			}
			seq = append(seq, op.ProcessBatch(items[i:j])...)
		}
		got := perKey(seq)
		if len(got) != len(base) {
			t.Fatalf("bs=%d: results for %d keys, want %d", bs, len(got), len(base))
		}
		for key, want := range base {
			have := got[key]
			if len(have) != len(want) {
				t.Fatalf("bs=%d key %d: %d results want %d", bs, key, len(have), len(want))
			}
			for i := range want {
				w, h := want[i], have[i]
				if w.Query != h.Query || w.Start != h.Start || w.End != h.End ||
					w.N != h.N || w.Update != h.Update || !approx(w.Value, h.Value) {
					t.Fatalf("bs=%d key %d result %d: got %+v want %+v", bs, key, i, h, w)
				}
			}
		}
	}
}

func TestKeyedStatsAggregate(t *testing.T) {
	op := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Ordered: true})
		ag.MustAddQuery(window.Tumbling(stream.Time, 50))
		return ag
	})
	for i := int64(0); i < 1000; i++ {
		op.ProcessElement(stream.Event[kv]{Time: i, Seq: i, Value: kv{Key: int(i % 3), V: 1}})
	}
	st := op.Stats()
	if st.Tuples != 1000 {
		t.Fatalf("tuples = %d", st.Tuples)
	}
	if op.Keys() != 3 {
		t.Fatalf("keys = %d", op.Keys())
	}
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/checkpoint"
	"scotty/internal/spill"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// TestKeyedRepresentationDecision pins sliceMajorKeyed: the shared slice ring
// is chosen exactly for context-free periodic time windows over a commutative
// aggregate on the lazy, unordered store — and EnableSpill, whose unit is a
// whole per-key operator, puts a still-empty operator on the per-key one.
func TestKeyedRepresentationDecision(t *testing.T) {
	build := func(opts Options, defs ...func() window.Definition) *Keyed[int, kv, float64, float64] {
		return NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
			ag := New(keyedSum(), opts)
			for _, d := range defs {
				ag.MustAddQuery(d())
			}
			return ag
		})
	}
	tumbling := func() window.Definition { return window.Tumbling(stream.Time, 100) }
	sliding := func() window.Definition { return window.Sliding(stream.Time, 400, 100) }
	session := func() window.Definition { return window.Session[kv](50) }
	count := func() window.Definition { return window.Tumbling(stream.Count, 10) }

	for _, tc := range []struct {
		name       string
		k          *Keyed[int, kv, float64, float64]
		sliceMajor bool
	}{
		{"tumbling", build(Options{}, tumbling), true},
		{"tumbling+sliding", build(Options{Lateness: 50}, tumbling, sliding), true},
		{"session member", build(Options{}, tumbling, session), false},
		{"count measure", build(Options{}, count), false},
		{"ordered", build(Options{Ordered: true}, tumbling), false},
		{"eager store", build(Options{Store: StoreEager}, tumbling), false},
		{"no query", build(Options{}), false},
	} {
		if got := tc.k.sm != nil; got != tc.sliceMajor {
			t.Errorf("%s: slice-major = %v, want %v", tc.name, got, tc.sliceMajor)
		}
	}
	nonCommutative := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, []float64, []float64] {
		ag := New(aggregate.Collect(func(t kv) float64 { return t.V }), Options{})
		ag.MustAddQuery(tumbling())
		return ag
	})
	if nonCommutative.sm != nil {
		t.Error("non-commutative aggregate: slice-major chosen, but its slices must keep tuples")
	}

	k := build(Options{}, tumbling)
	k.ProcessWatermark(500) // before any key: the switch must carry it over
	st, err := spill.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.EnableSpill(SpillConfig{Budget: 1 << 20, Store: st}); err != nil {
		t.Fatal(err)
	}
	if k.sm != nil {
		t.Error("EnableSpill left the operator slice-major; the spill tier evicts per-key operators")
	}
	if rs := k.ProcessElement(stream.Event[kv]{Time: 100, Value: kv{Key: 1, V: 1}}); len(rs) != 0 || k.Stats().Dropped != 1 {
		t.Errorf("tuple behind the pre-switch watermark: rows %v, stats %+v, want it dropped", rs, k.Stats())
	}
	k = build(Options{}, tumbling)
	k.ProcessElement(stream.Event[kv]{Time: 1, Value: kv{Key: 1, V: 1}})
	if err := k.EnableSpill(SpillConfig{Budget: 1 << 20, Store: st}); err == nil {
		t.Error("EnableSpill after the first key succeeded")
	}
}

// lateStream is a keyed stream with a fifth of its tuples late but accepted,
// prepared with scotty's watermarker (see keyed_differential_test.go).
func lateStream(keys, n int, seed int64) []stream.Item[kv] {
	return stream.Prepare(diffWatermarker, stream.Apply(diffDisorder, diffEvents(keys, n, seed)))
}

// TestSliceMajorSnapshotRestore cuts a disordered run at random items —
// late tuples on both sides of the cut — and requires the restored operator
// to finish exactly as the uninterrupted one: same rows, same statistics,
// same state (a second snapshot of both is byte-identical).
func TestSliceMajorSnapshotRestore(t *testing.T) {
	defs := []periodicDef{{1000, 1000}, {2500, 1000}}
	items := lateStream(300, 8000, 21)
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 6; round++ {
		cut := 1 + rng.Intn(len(items)-2)
		ttl := int64(round%2) * 1500 // odd rounds expire idle keys on both sides
		whole := newKeyedSum(t, defs, false, ttl)
		runBatched(whole, items[:cut], 64, len(defs))
		snap, err := whole.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want := runBatched(whole, items[cut:len(items)-1], 64, len(defs))

		restored := newKeyedSum(t, defs, false, ttl)
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := runBatched(restored, items[cut:len(items)-1], 64, len(defs))
		if len(got) != len(want) {
			t.Fatalf("cut %d: restored run emitted %d rows, uninterrupted %d", cut, len(got), len(want))
		}
		for i := range want {
			if rowString(got[i]) != rowString(want[i]) {
				t.Fatalf("cut %d row %d: restored %s, uninterrupted %s", cut, i, rowString(got[i]), rowString(want[i]))
			}
		}
		if a, b := restored.Stats(), whole.Stats(); a != b || restored.Keys() != whole.Keys() {
			t.Errorf("cut %d: restored stats %+v keys %d, uninterrupted %+v keys %d", cut, a, restored.Keys(), b, whole.Keys())
		}
		a, errA := restored.Snapshot()
		b, errB := whole.Snapshot()
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Errorf("cut %d: states diverged after the suffix (snapshots %d and %d bytes, errors %v, %v)", cut, len(a), len(b), errA, errB)
		}
		// The closing drain too.
		last := items[len(items)-1:]
		if a, b := runBatched(restored, last, 0, len(defs)), runBatched(whole, last, 0, len(defs)); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("cut %d: drains differ", cut)
		}
	}
}

// TestKeyedSnapshotsDoNotCrossRepresentations: a payload of one layout offered
// to an operator keeping the other is refused as a mismatch before anything is
// loaded, so a caller (scotty's checkpoint restore) can fall back to a cold
// start on the same operator.
func TestKeyedSnapshotsDoNotCrossRepresentations(t *testing.T) {
	defs := []periodicDef{{1000, 1000}}
	items := lateStream(50, 2000, 5)
	for _, perKey := range []bool{false, true} {
		src := newKeyedSum(t, defs, perKey, 0)
		runBatched(src, items[:len(items)-1], 0, 1)
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		dst := newKeyedSum(t, defs, !perKey, 0)
		if err := dst.Restore(snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("perKey=%v snapshot into perKey=%v operator: %v, want ErrSnapshotMismatch", perKey, !perKey, err)
		}
		if dst.Keys() != 0 {
			t.Errorf("refused restore left %d keys behind", dst.Keys())
		}
		if rows := runBatched(dst, items, 0, 1); len(rows) == 0 {
			t.Error("operator unusable after a refused restore")
		}
	}
}

// TestSliceMajorExpiredKeyLeavesNoStalePartial: a key that idles out while
// slices holding its partials are still live, and comes back inside the
// allowed lateness with a tuple for one of those slices, must not read its
// predecessor's partial — it is a new key, as on the per-key representation.
func TestSliceMajorExpiredKeyLeavesNoStalePartial(t *testing.T) {
	k := NewKeyed(func(v kv) int { return v.Key }, 100, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 2000})
		ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
		return ag
	})
	if k.sm == nil {
		t.Fatal("fixture is not slice-major")
	}
	rs := drivers()[1].feed(k, []stream.Item[kv]{ev(1, 500, 5), ev(2, 2800, 1), wm[kv](2700)})
	wantResults(t, "first incarnation", byKey(rs, 1), []string{"[0,1000) n=1 v=5 upd=false"})
	if k.Keys() != 1 {
		t.Fatalf("key 1 not expired at 2700 (last seen 500, ttl 100, lateness 2000): %d live", k.Keys())
	}
	if len(k.sm.ring) == 0 || k.sm.ring[0].start != 0 {
		t.Fatalf("slice [0,1000) no longer live; the test needs it to be: %+v", k.SliceSnapshot())
	}
	// 800 > 2700-2000: accepted. The window closed before this incarnation
	// existed, so the next watermark announces it — with the new tuple only.
	rs = drivers()[1].feed(k, []stream.Item[kv]{ev(1, 800, 7), wm[kv](2750)})
	wantResults(t, "second incarnation", byKey(rs, 1), []string{"[0,1000) n=1 v=7 upd=false"})
	rs = drivers()[1].feed(k, []stream.Item[kv]{ev(1, 900, 1), wm[kv](2800)})
	wantResults(t, "second incarnation, corrected", byKey(rs, 1), []string{"[0,1000) n=2 v=8 upd=true"})
	if got := k.SliceSnapshot()[0]; got.N != 2 || got.Keys != 1 {
		t.Errorf("slice [0,1000) reports %+v, want the 2 tuples of 1 live key", got)
	}
}

// TestSliceMajorQuietWatermark: a watermark that completes no window, with no
// trailing key fed since the last one, must not visit keys — however many
// there are.
func TestSliceMajorQuietWatermark(t *testing.T) {
	k := NewKeyed(func(v kv) int { return v.Key }, 0, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: 2000})
		ag.MustAddQuery(window.Tumbling(stream.Time, 5000))
		return ag
	})
	const keys = 100_000
	for i := 0; i < keys; i++ {
		k.ProcessElement(stream.Event[kv]{Time: int64(i % 1000), Value: kv{Key: i, V: 1}})
	}
	visits := func(wm int64) int64 {
		before := k.sm.keyVisits
		k.ProcessWatermark(wm)
		return k.sm.keyVisits - before
	}
	if n := visits(1000); n != keys {
		t.Fatalf("first watermark visited %d keys, want all %d", n, keys)
	}
	for wm := int64(2000); wm < 4999; wm += 1000 {
		if n := visits(wm); n != 0 {
			t.Errorf("watermark %d completes no window but visited %d keys", wm, n)
		}
	}
	if avg := testing.AllocsPerRun(10, func() { k.ProcessWatermark(k.sm.currWM + 1) }); avg != 0 && !raceEnabled {
		t.Errorf("quiet watermark allocates %.1f times", avg)
	}
	if rs := k.ProcessWatermark(4999); len(rs) != keys {
		t.Errorf("watermark 4999 completes [0,5000) for every key: %d rows, want %d", len(rs), keys)
	}
	// A key that fell silent and speaks again is owed its gap rows at the
	// next watermark, due window or not — and it alone is visited.
	k.ProcessWatermark(14_999) // every key trails now
	k.ProcessElement(stream.Event[kv]{Time: 21_000, Value: kv{Key: 7, V: 1}})
	before := k.sm.keyVisits
	rs := k.ProcessWatermark(18_000)
	if got := k.sm.keyVisits - before; got != 1 {
		t.Errorf("catch-up watermark visited %d keys, want the one fed", got)
	}
	wantResults(t, "catch-up", byKey(rs, 7), []string{"[5000,10000) n=0 v=0 upd=false", "[10000,15000) n=0 v=0 upd=false"})
}

// zipfItems is bench's csv-keyed-zipf10k stream at ladder length: n tuples,
// two per event-ms, over 10 000 Zipf(1.1) keys, with scotty's watermarks.
func zipfItems(n int) []stream.Item[stream.Tuple] {
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.1, 1, 9999)
	ev := make([]stream.Event[stream.Tuple], n)
	for i := range ev {
		ev[i] = stream.Event[stream.Tuple]{Time: int64(i / 2), Seq: int64(i), Value: stream.Tuple{Key: int32(z.Uint64()), V: float64(r.Intn(1000))}}
	}
	items := stream.Prepare(diffWatermarker, ev)
	return items[:len(items)-1]
}

func newZipfKeyed(perKey bool) *Keyed[int32, stream.Tuple, float64, float64] {
	return NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 0, func() *Aggregator[stream.Tuple, float64, float64] {
		ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
		ag.MustAddQuery(window.Tumbling(stream.Time, 5000))
		if perKey {
			ag.MustAddQuery(window.Session[stream.Tuple](1 << 40))
		}
		return ag
	})
}

// TestSliceMajorSteadyStateIsAllocationFree is the runtime cross-check of
// //slicelint:hotpath on the slice-major element path: once every key is in
// the directory and the pooled slice tables have reached their working size,
// folding tuples — slice turnover and eviction included — allocates nothing.
func TestSliceMajorSteadyStateIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful in plain builds")
	}
	k := newZipfKeyed(false)
	const keys, bs = 512, 2048
	buf := make([]stream.Item[stream.Tuple], bs)
	var ts int64
	run := func() {
		for i := range buf {
			ts++
			buf[i] = stream.EventItem(stream.Event[stream.Tuple]{Time: ts, Seq: ts, Value: stream.Tuple{Key: int32(ts % keys), V: 1}})
		}
		k.ProcessBatch(buf)
		k.ProcessWatermark(ts - 2001)
	}
	for i := 0; i < 32; i++ { // 65 s of stream: every key known, ring and result buffer at size
		run()
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("%.2f allocations per %d-tuple batch and watermark in steady state, want 0", avg, bs)
	}
}

// TestSliceMajorBytesPerKey is the memory half of the keyed-state claim: after
// 200 k Zipf tuples the live heap the operator holds is under 200 B per key
// (the per-key representation: 1.4-2.8 kB), and ResidentBytesEstimate reports
// that state rather than nothing — bench sizes its spill budget from it.
func TestSliceMajorBytesPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the heap; not meaningful beside parallel tests' garbage")
	}
	items := zipfItems(200_000)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	k := newZipfKeyed(false)
	for i := 0; i < len(items); i += 256 {
		k.ProcessBatch(items[i:min(i+256, len(items))])
	}
	held := int64(heap() - before)
	runtime.KeepAlive(k)
	runtime.KeepAlive(items)
	perKey := held / int64(k.Keys())
	est := k.ResidentBytesEstimate()
	t.Logf("%d keys: %d B live heap (%d B/key), ResidentBytesEstimate %d B", k.Keys(), held, perKey, est)
	if perKey > 200 {
		t.Errorf("%d B of live heap per key, want <= 200", perKey)
	}
	if est < held/2 || est > held*2 {
		t.Errorf("ResidentBytesEstimate %d B is not the state held (%d B live heap)", est, held)
	}
}

// BenchmarkKeyedZipf replays bench's keyed ladder stream in 256-item batches
// through both representations (the per-key one forced by a session member
// with an unreachable gap).
func BenchmarkKeyedZipf(b *testing.B) {
	items := zipfItems(200_000)
	tuples := 0
	for _, it := range items {
		if it.Kind == stream.KindEvent {
			tuples++
		}
	}
	for _, perKey := range []bool{false, true} {
		b.Run(fmt.Sprintf("perKey=%v", perKey), func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				k := newZipfKeyed(perKey)
				for j := 0; j < len(items); j += 256 {
					rows += len(k.ProcessBatch(items[j:min(j+256, len(items))]))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
			b.ReportMetric(float64(rows)/float64(b.N), "rows")
		})
	}
}

type periodicDef struct{ length, slide int64 }

// diffLateness and diffWatermarker are scotty's defaults; diffDisorder delays
// a fifth of the tuples by up to 3.5 s — behind the watermark (lag 2001) but
// inside lag + lateness, so every tuple is accepted and many are late.
const diffLateness = 2000

var (
	diffWatermarker = stream.Watermarker{Period: 1000, Lag: 2001}
	diffDisorder    = stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 7}
)

// newKeyedSum builds a keyed sum over sliding windows and asserts which
// representation NewKeyed chose: a session member — registered last, so the
// periodic queries keep ids 0..len(defs)-1 — slices on the data and thereby
// forces the per-key one. (The keyed differential against internal/reference
// is TestKeyedDifferential, a case of internal/differential.)
func newKeyedSum(t testing.TB, defs []periodicDef, perKey bool, idleTTL int64) *Keyed[int, kv, float64, float64] {
	k := NewKeyed(func(v kv) int { return v.Key }, idleTTL, func() *Aggregator[kv, float64, float64] {
		ag := New(keyedSum(), Options{Lateness: diffLateness})
		for _, d := range defs {
			ag.MustAddQuery(window.Sliding(stream.Time, d.length, d.slide))
		}
		if perKey {
			ag.MustAddQuery(window.Session[kv](700))
		}
		return ag
	})
	if (k.sm == nil) != perKey {
		t.Fatalf("builder asked for perKey=%v, NewKeyed chose slice-major=%v", perKey, k.sm != nil)
	}
	return k
}

// diffEvents generates n in-order tuples, about one every 2 ms, over a
// skewed key space: low keys are hot, high keys appear late and rarely.
func diffEvents(keys, n int, seed int64) []stream.Event[kv] {
	rng := rand.New(rand.NewSource(seed))
	events := make([]stream.Event[kv], n)
	ts := int64(0)
	for i := range events {
		ts += int64(rng.Intn(4))
		key := rng.Intn(keys)
		if rng.Intn(2) == 0 {
			key = rng.Intn(1 + keys/10)
		}
		events[i] = stream.Event[kv]{Time: ts, Seq: int64(i), Value: kv{Key: key, V: float64(rng.Intn(100))}}
	}
	return events
}

// runBatched feeds items in batches of bs (0: one call) and returns the rows
// of the first nq queries in emission order.
func runBatched(k *Keyed[int, kv, float64, float64], items []stream.Item[kv], bs, nq int) []KeyedResult[int, float64] {
	if bs <= 0 {
		bs = len(items)
	}
	var rows []KeyedResult[int, float64]
	for i := 0; i < len(items); i += bs {
		for _, r := range k.ProcessBatch(items[i:min(i+bs, len(items))]) {
			if r.Query < nq {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

func rowString(r KeyedResult[int, float64]) string {
	return fmt.Sprintf("k%d q%d [%d,%d) n=%d v=%v upd=%v", r.Key, r.Query, r.Start, r.End, r.N, r.Value, r.Update)
}

// TestSliceMajorReadsVersion1: a payload written before late marks travelled
// in the snapshot — tag keyed/slice-major/1, no trailing marks — restores as
// one with none, and the run continues as the uninterrupted one does.
func TestSliceMajorReadsVersion1(t *testing.T) {
	feed := drivers()[0].feed
	prefix := []stream.Item[kv]{ev(1, 100, 1), ev(2, 900, 2), ev(1, 1800, 4), wm[kv](1000)}
	suffix := []stream.Item[kv]{ev(1, 700, 8), ev(2, 2500, 16), wm[kv](2000), wm[kv](stream.MaxTime)}
	k := newKeyedSum(t, []periodicDef{{1000, 1000}}, false, 0)
	feed(k, prefix)
	data, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.Payload(data)
	if err != nil {
		t.Fatal(err)
	}
	// Version 2 is version 1 plus the count of marks (an 8-byte zero here).
	if !bytes.HasSuffix(payload, make([]byte, 8)) || !bytes.Contains(payload, []byte(sliceMajorSnapshot)) {
		t.Fatalf("payload does not end in an empty mark list behind tag %q", sliceMajorSnapshot)
	}
	enc := checkpoint.NewEncoder()
	enc.Raw(bytes.Replace(payload[:len(payload)-8], []byte(sliceMajorSnapshot), []byte(sliceMajorSnapshotV1), 1))
	old := newKeyedSum(t, []periodicDef{{1000, 1000}}, false, 0)
	if err := old.Restore(enc.Seal()); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	rsWant, rsGot := feed(k, suffix), feed(old, suffix)
	for _, key := range []int{1, 2} {
		want, got = append(want, byKey(rsWant, key)...), append(got, byKey(rsGot, key)...)
	}
	wantResults(t, "restored from version 1", got, want)
	if len(want) == 0 {
		t.Fatal("the suffix emitted nothing")
	}
}

// TestDirtySetsStayBounded: thousands of late tuples that touch the same few
// windows between two watermarks grow neither the core's nor the slice-major
// operator's dirty set past a few times the windows they name, and the next
// watermark emits each of those windows once.
func TestDirtySetsStayBounded(t *testing.T) {
	const late = 5000
	ag := New[float64](aggregate.Sum[float64](ident), Options{Lateness: 1 << 40})
	ag.MustAddQuery(window.Sliding(stream.Time, 10_000, 1_000))
	for ts := int64(0); ts <= 30_000; ts += 100 {
		ag.ProcessElement(stream.Event[float64]{Time: ts, Seq: ts, Value: 1})
	}
	ag.ProcessWatermark(25_000)
	for i := int64(0); i < late; i++ {
		ag.ProcessElement(stream.Event[float64]{Time: 12_000 + i%1000, Seq: 30_001 + i, Value: 1})
	}
	// The tuples lie in [12 000, 13 000): ten announced windows hold them.
	if c := cap(ag.pendingUpdates); c > 64 {
		t.Errorf("core: %d late tuples over 10 windows left a dirty set of capacity %d", late, c)
	}
	if rs := ag.ProcessWatermark(25_001); len(rs) != 10 {
		t.Errorf("core: the watermark emitted %d rows, want one update for each of 10 windows", len(rs))
	}

	k := newKeyedSum(t, []periodicDef{{10_000, 1_000}}, false, 0)
	var items []stream.Item[kv]
	for ts := int64(0); ts <= 30_000; ts += 100 {
		items = append(items, ev(1, ts, 1), ev(2, ts, 1))
	}
	drivers()[0].feed(k, append(items, wm[kv](25_000)))
	items = items[:0]
	for i := int64(0); i < late; i++ {
		items = append(items, ev(1+int(i%2), 23_500+i%400, 1))
	}
	drivers()[0].feed(k, items)
	// [23 500, 23 900) lies in two announced windows per key: [14 000,
	// 24 000) and [15 000, 25 000).
	if c := cap(k.sm.late); c > 64 {
		t.Errorf("slice-major: %d late tuples over 4 windows left a dirty set of capacity %d", late, c)
	}
	if rs := drivers()[0].feed(k, []stream.Item[kv]{wm[kv](25_001)}); len(rs) != 4 {
		t.Errorf("slice-major: the watermark emitted %d rows, want one update for each of 4 windows", len(rs))
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// The keyed differential: both representations of Keyed, built by one
// builder, against internal/reference on keyed streams with and without
// disorder, at every batch size a caller may choose.

type periodicDef struct{ length, slide int64 }

// diffLateness and diffWatermarker are scotty's defaults; diffDisorder delays
// a fifth of the tuples by up to 3.5 s — behind the watermark (lag 2001) but
// inside lag + lateness, so every tuple is accepted and many are late.
const diffLateness = 2000

var (
	diffWatermarker = stream.Watermarker{Period: 1000, Lag: 2001}
	diffDisorder    = stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 7}
)

// newDiffKeyed builds the operator under test. A session member — registered
// last, so the periodic queries keep ids 0..len(defs)-1 — slices on the data
// and thereby forces the per-key representation; its rows are not compared.
// Its gap is shorter than the disorder, so late tuples open sessions between
// the periodic queries' edges (Fig 4's shared-session rule keeps tuples).
func newDiffKeyed(t testing.TB, defs []periodicDef, perKey bool, idleTTL int64) *Keyed[int, kv, float64, float64] {
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

type windowID struct {
	key, query int
	start, end int64
}

// referenceWindows computes, per key and query, the oracle's result for
// every window holding at least one tuple.
func referenceWindows(events []stream.Event[kv], defs []periodicDef) map[windowID]reference.Final[float64] {
	perKey := map[int][]stream.Event[kv]{}
	for _, e := range events {
		perKey[e.Value.Key] = append(perKey[e.Value.Key], e)
	}
	f := keyedSum()
	want := map[windowID]reference.Final[float64]{}
	for key, sub := range perKey {
		for qi, d := range defs {
			q := reference.Query[kv]{Kind: reference.Periodic, Measure: stream.Time, Length: d.length, Slide: d.slide}
			for _, w := range reference.Finals(f, q, sub, stream.MaxTime) {
				if w.N > 0 {
					want[windowID{key, qi, w.Start, w.End}] = w
				}
			}
		}
	}
	return want
}

// checkAgainstReference requires every window holding at least one tuple to
// end on a row equal to the oracle's, and no window to get two regular rows.
func checkAgainstReference(t *testing.T, name string, rows []KeyedResult[int, float64], want map[windowID]reference.Final[float64]) {
	t.Helper()
	last := map[windowID]KeyedResult[int, float64]{}
	regular := map[windowID]int{}
	for _, r := range rows {
		id := windowID{r.Key, r.Query, r.Start, r.End}
		last[id] = r
		if !r.Update {
			if regular[id]++; regular[id] == 2 {
				t.Errorf("%s: window %+v announced twice", name, id)
			}
		}
	}
	wrong, missing := 0, 0
	for id, w := range want {
		got, ok := last[id]
		switch {
		case !ok:
			if missing++; missing <= 3 {
				t.Errorf("%s: window %+v never emitted (want n=%d v=%v)", name, id, w.N, w.Value)
			}
		case got.N != w.N || !approx(got.Value, w.Value):
			if wrong++; wrong <= 3 {
				t.Errorf("%s: window %+v ends on n=%d v=%v, want n=%d v=%v", name, id, got.N, got.Value, w.N, w.Value)
			}
		}
	}
	if wrong+missing > 0 {
		t.Errorf("%s: %d wrong and %d missing of %d windows", name, wrong, missing, len(want))
	}
}

func perKeyRows(rows []KeyedResult[int, float64]) map[int][]string {
	m := map[int][]string{}
	for _, r := range rows {
		m[r.Key] = append(m[r.Key], rowString(r))
	}
	return m
}

func TestKeyedDifferential(t *testing.T) {
	n := 12_000
	if testing.Short() {
		n = 4_000
	}
	windowSets := []struct {
		name string
		defs []periodicDef
	}{
		{"tumbling", []periodicDef{{1000, 1000}}},
		{"sliding", []periodicDef{{4000, 1000}}},
		{"two-queries", []periodicDef{{1000, 1000}, {2500, 1000}}},
	}
	for _, keys := range []int{5, 500, 5000} {
		for _, ws := range windowSets {
			for _, disordered := range []bool{false, true} {
				keys, ws, disordered := keys, ws, disordered
				t.Run(fmt.Sprintf("keys=%d/%s/disorder=%v", keys, ws.name, disordered), func(t *testing.T) {
					t.Parallel()
					events := diffEvents(keys, n, int64(keys)+int64(len(ws.name)))
					arrivals := events
					if disordered {
						arrivals = stream.Apply(diffDisorder, events)
					}
					items := stream.Prepare(diffWatermarker, arrivals)
					nq := len(ws.defs)
					want := referenceWindows(events, ws.defs)
					if len(want) == 0 {
						t.Fatal("the oracle expects no window")
					}

					var inOrder [2][]KeyedResult[int, float64] // per representation, batch size 1
					for rep, perKey := range []bool{false, true} {
						var base map[int][]string
						for _, bs := range []int{1, 7, 256, 0} {
							name := fmt.Sprintf("perKey=%v bs=%d", perKey, bs)
							k := newDiffKeyed(t, ws.defs, perKey, 0)
							rows := runBatched(k, items, bs, nq)
							checkAgainstReference(t, name, rows, want)
							if st := k.Stats(); st.Dropped != 0 || st.Tuples != int64(n) {
								t.Errorf("%s: stats %+v, want %d tuples and no drops", name, st, n)
							}
							// Batching may regroup rows across keys, never
							// within one.
							got := perKeyRows(rows)
							if base == nil {
								base, inOrder[rep] = got, rows
								continue
							}
							for key, want := range base {
								if have := got[key]; fmt.Sprint(have) != fmt.Sprint(want) {
									t.Fatalf("%s: key %d rows differ from bs=1:\n got %v\nwant %v", name, key, have, want)
								}
							}
							if len(got) != len(base) {
								t.Fatalf("%s: rows for %d keys, bs=1 had %d", name, len(got), len(base))
							}
						}
					}
					if disordered {
						return
					}
					// In order, the two representations print the same rows
					// in the same order, the n=0 gap rows included.
					a, b := inOrder[0], inOrder[1]
					if len(a) != len(b) {
						t.Fatalf("slice-major emitted %d rows, per-key %d", len(a), len(b))
					}
					empty := 0
					for i := range a {
						if rowString(a[i]) != rowString(b[i]) {
							t.Fatalf("row %d: slice-major %s, per-key %s", i, rowString(a[i]), rowString(b[i]))
						}
						if a[i].N == 0 {
							empty++
						}
					}
					if keys >= 500 && empty == 0 {
						t.Error("no n=0 gap row in the comparison; the stream lost its silent keys")
					}
				})
			}
		}
	}
}

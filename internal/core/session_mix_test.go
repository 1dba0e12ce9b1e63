package core

import (
	"math/rand"
	"sort"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/reference"
	"scotty/internal/stream"
)

// sessionMixEvents is the stream the sliding + session panic was found on:
// n tuples, each up to 1.5 s after the one before, so session gaps of 700 ms
// open and close all the time, then a fifth of them delayed by up to 3.5 s —
// past the watermark lag, inside lag + lateness.
func sessionMixEvents(seed int64, n int) (events, arrivals []stream.Event[float64]) {
	rng := rand.New(rand.NewSource(seed))
	events = make([]stream.Event[float64], n)
	ts := int64(0)
	for i := range events {
		ts += int64(rng.Intn(1500))
		events[i] = stream.Event[float64]{Time: ts, Seq: int64(i), Value: float64(rng.Intn(100))}
	}
	return events, stream.Apply(stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: seed}, events)
}

// TestSlidingPlusSessionUnderDisorder: a session whose gap is shorter than the
// disorder, sharing an out-of-order operator with a sliding window. The
// sliding edges cut the session's gaps into populated slices, so a late tuple
// that opens a session there puts its edge inside one (Fig 4's session
// exemption assumes the session is alone). Seeds 0–199: none panics, and
// every window ends on the oracle's value.
func TestSlidingPlusSessionUnderDisorder(t *testing.T) {
	f := aggregate.Sum[float64](ident)
	for seed := int64(0); seed < 200; seed++ {
		// Definitions carry their trigger cursors: fresh ones per operator.
		queries := []trialQuery{timeSlidingQ(4000, 1000), sessionQ(700)}
		events, arrivals := sessionMixEvents(seed, 400)
		items := stream.Prepare(stream.Watermarker{Period: 1000, Lag: 2001}, arrivals)
		ag := New[float64](f, Options{Lateness: 2000})
		ids := make([]int, len(queries))
		for i, q := range queries {
			ids[i] = ag.MustAddQuery(q.def)
		}
		finals := run(ag, items)
		checkAgainst(t, finals, ids[0], reference.Finals(f, queries[0].ref, events, stream.MaxTime))
		checkSessions(t, finals, ids[1], reference.Finals(f, queries[1].ref, events, stream.MaxTime))
		if t.Failed() {
			t.Fatalf("seed %d diverged from the oracle", seed)
		}
	}
}

// checkSessions is checkAgainst for a session query under disorder: a session
// announced before a late tuple extended or bridged it keeps its row, as a row
// cannot be retracted, so a window the oracle does not know is allowed if it
// lies inside one the oracle does.
func checkSessions(t *testing.T, finals finalMap, qid int, want []reference.Final[float64]) {
	t.Helper()
	for _, w := range want {
		got, ok := finals[key{qid, w.Start, w.End}]
		switch {
		case !ok:
			t.Errorf("query %d: missing session [%d,%d)", qid, w.Start, w.End)
		case got.N != w.N || !approx(got.Value, w.Value):
			t.Errorf("query %d session [%d,%d): n=%d v=%v, want n=%d v=%v", qid, w.Start, w.End, got.N, got.Value, w.N, w.Value)
		}
	}
	for k := range finals {
		if k.query != qid {
			continue
		}
		i := sort.Search(len(want), func(i int) bool { return want[i].End >= k.end })
		if i == len(want) || want[i].Start > k.start {
			t.Errorf("query %d: session [%d,%d) lies in no session of the oracle", qid, k.start, k.end)
		}
	}
}

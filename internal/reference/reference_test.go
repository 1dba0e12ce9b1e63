package reference

import (
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
)

func ident(v float64) float64 { return v }

func ev(ts int64, seq int64, v float64) stream.Event[float64] {
	return stream.Event[float64]{Time: ts, Seq: seq, Value: v}
}

func TestCanonicalSortsByTimeThenSeq(t *testing.T) {
	events := []stream.Event[float64]{ev(5, 2, 1), ev(1, 1, 2), ev(5, 1, 3)}
	c := Canonical(events)
	if c[0].Value != 2 || c[1].Value != 3 || c[2].Value != 1 {
		t.Fatalf("canonical order wrong: %+v", c)
	}
}

func TestPeriodicTimeFinals(t *testing.T) {
	f := aggregate.Sum(ident)
	events := []stream.Event[float64]{ev(1, 0, 1), ev(5, 1, 2), ev(12, 2, 4), ev(25, 3, 8)}
	finals := Finals(f, Query[float64]{Kind: Periodic, Measure: stream.Time, Length: 10, Slide: 10}, events, stream.MaxTime)
	want := map[[2]int64]float64{{0, 10}: 3, {10, 20}: 4, {20, 30}: 8}
	if len(finals) != len(want) {
		t.Fatalf("finals: %+v", finals)
	}
	for _, w := range finals {
		if want[[2]int64{w.Start, w.End}] != w.Value {
			t.Fatalf("window [%d,%d) = %v", w.Start, w.End, w.Value)
		}
	}
}

func TestPeriodicTimeRespectsFinalWatermark(t *testing.T) {
	f := aggregate.Sum(ident)
	events := []stream.Event[float64]{ev(1, 0, 1), ev(25, 1, 8)}
	finals := Finals(f, Query[float64]{Kind: Periodic, Measure: stream.Time, Length: 10, Slide: 10}, events, 15)
	// Only [0,10) completes at watermark 15 (end-1 = 9 <= 15; [10,20) needs 19).
	if len(finals) != 1 || finals[0].End != 10 {
		t.Fatalf("finals: %+v", finals)
	}
}

func TestPeriodicCountFinals(t *testing.T) {
	f := aggregate.Sum(ident)
	events := []stream.Event[float64]{ev(3, 0, 1), ev(1, 1, 2), ev(2, 2, 4), ev(9, 3, 8), ev(4, 4, 16)}
	// Canonical value order: 2 (t1), 4 (t2), 1 (t3), 16 (t4), 8 (t9).
	finals := Finals(f, Query[float64]{Kind: Periodic, Measure: stream.Count, Length: 2, Slide: 2}, events, stream.MaxTime)
	if len(finals) != 2 {
		t.Fatalf("finals: %+v", finals)
	}
	if finals[0].Value != 6 || finals[1].Value != 17 {
		t.Fatalf("count windows: %+v", finals)
	}
}

func TestSessionFinals(t *testing.T) {
	f := aggregate.Count[float64]()
	events := []stream.Event[float64]{ev(0, 0, 1), ev(5, 1, 1), ev(30, 2, 1), ev(31, 3, 1)}
	finals := Finals(f, Query[float64]{Kind: Session, Gap: 10}, events, stream.MaxTime)
	if len(finals) != 2 {
		t.Fatalf("sessions: %+v", finals)
	}
	if finals[0].Start != 0 || finals[0].End != 15 || finals[0].N != 2 {
		t.Fatalf("session 1: %+v", finals[0])
	}
	if finals[1].Start != 30 || finals[1].End != 41 || finals[1].N != 2 {
		t.Fatalf("session 2: %+v", finals[1])
	}
}

func TestSessionGapBoundaryIsExclusive(t *testing.T) {
	f := aggregate.Count[float64]()
	// Exactly gap apart: separate sessions (same session iff distance < gap).
	events := []stream.Event[float64]{ev(0, 0, 1), ev(10, 1, 1)}
	finals := Finals(f, Query[float64]{Kind: Session, Gap: 10}, events, stream.MaxTime)
	if len(finals) != 2 {
		t.Fatalf("expected two sessions: %+v", finals)
	}
}

func TestPunctuationFinals(t *testing.T) {
	f := aggregate.Sum(ident)
	pred := func(v float64) bool { return v < 0 }
	events := []stream.Event[float64]{ev(1, 0, 1), ev(4, 1, -1), ev(6, 2, 2), ev(9, 3, -1), ev(12, 4, 4)}
	finals := Finals(f, Query[float64]{Kind: Punctuation, Pred: pred}, events, stream.MaxTime)
	if len(finals) != 2 {
		t.Fatalf("punct windows: %+v", finals)
	}
	// [0,5): values 1, -1; [5,10): 2, -1. The trailing window is open.
	if finals[0].Value != 0 || finals[1].Value != 1 {
		t.Fatalf("punct values: %+v", finals)
	}
}

func TestCountInTimeFinals(t *testing.T) {
	f := aggregate.Sum(ident)
	events := []stream.Event[float64]{ev(50, 0, 1), ev(90, 1, 2), ev(110, 2, 4), ev(180, 3, 8), ev(240, 4, 16)}
	finals := Finals(f, Query[float64]{Kind: CountInTime, N: 3, Every: 100}, events, stream.MaxTime)
	// T=100: last 3 of {1,2} → [0,2) sum 3. T=200: last 3 of 4 → ranks [1,4) sum 14.
	if len(finals) != 2 {
		t.Fatalf("CIT windows: %+v", finals)
	}
	if finals[0].Value != 3 || finals[1].Value != 14 {
		t.Fatalf("CIT values: %+v", finals)
	}
}

func TestCheckRules(t *testing.T) {
	row := func(q int, s, e, n int64, v float64, upd bool) Row {
		return Row{Query: q, Start: s, End: e, N: n, Value: v, Update: upd}
	}
	// Query 1 is a session, whose windows a late tuple can re-cut.
	want := Want{Rows: []Row{row(0, 0, 10, 2, 3, false), row(1, 0, 30, 3, 7, false)}, Final: 100, Recut: map[int]bool{1: true}}
	for _, tc := range []struct {
		name string
		rows []Row
		got  Verdict
	}{
		{"an update supersedes", []Row{row(0, 0, 10, 1, 1, false), row(0, 0, 10, 2, 3, true), row(1, 0, 30, 3, 7, false)}, Verdict{}},
		{"the last row is wrong", []Row{row(0, 0, 10, 2, 3, false), row(0, 0, 10, 1, 1, true), row(1, 0, 30, 3, 7, false)}, Verdict{Wrong: 1}},
		{"missing", []Row{row(0, 0, 10, 2, 3, false)}, Verdict{Missing: 1}},
		{"empty and provisional rows are not unexpected", []Row{row(0, 0, 10, 2, 3, false), row(1, 0, 30, 3, 7, false), row(0, 10, 20, 0, 0, false), row(0, 100, 110, 5, 5, false)}, Verdict{}},
		{"a non-empty unknown window", []Row{row(0, 0, 10, 2, 3, false), row(1, 0, 30, 3, 7, false), row(0, 20, 30, 1, 1, false)}, Verdict{Unexpected: 1}},
		{"a session later extended nests in the known one", []Row{row(0, 0, 10, 2, 3, false), row(1, 0, 20, 2, 4, false), row(1, 0, 30, 3, 7, true)}, Verdict{}},
		{"a periodic window nesting in a known one", []Row{row(0, 0, 10, 2, 3, false), row(0, 0, 5, 1, 1, false), row(1, 0, 30, 3, 7, false)}, Verdict{Unexpected: 1}},
		{"announced twice", []Row{row(0, 0, 10, 1, 1, false), row(0, 0, 10, 2, 3, false), row(1, 0, 30, 3, 7, false)}, Verdict{Twice: 1}},
		{"re-announced unchanged", []Row{row(0, 0, 10, 2, 3, false), row(0, 0, 10, 2, 3, false), row(1, 0, 30, 3, 7, false)}, Verdict{}},
	} {
		v := Check(tc.rows, want)
		v.Expected, v.First = 0, ""
		if v != tc.got {
			t.Errorf("%s: %+v, want %+v", tc.name, v, tc.got)
		}
	}
}

func TestDiffGroups(t *testing.T) {
	a := []Row{{Key: 1, Start: 0, End: 10, N: 1, Value: 1}, {Key: 2, Start: 0, End: 10, N: 1, Value: 2}}
	b := []Row{a[1], a[0]}
	if d := Diff(a, b, func(r Row) int64 { return r.Key }); d != "" {
		t.Errorf("per-key groups in another interleaving: %s", d)
	}
	if d := Diff(a, b, nil); d == "" {
		t.Error("one group in another order passed")
	}
}

package reference

import (
	"fmt"
	"math"

	"scotty/internal/aggregate"
	"scotty/internal/stream"
)

// Row is one window result as every harness sees it, whichever operator
// emitted it: Key is 0 for an unkeyed operator, Query the query id, and
// Start/End the window's extent in its query's measure.
type Row struct {
	Key        int64
	Query      int
	Start, End int64
	N          int64
	Value      float64
	Update     bool
}

// Window identifies the window a row reports on.
type Window struct {
	Key        int64
	Query      int
	Start, End int64
}

// Window returns the window r reports on.
func (r Row) Window() Window { return Window{r.Key, r.Query, r.Start, r.End} }

// Want is the oracle's side of a comparison: one row for every window that
// holds at least one tuple and that a watermark closed, and Final, the last
// watermark before the closing drain (stream.MaxTime when the stream ended
// with a closing watermark, so nothing is provisional), and Recut, the ids
// of the queries whose windows a late tuple can re-cut after they were
// announced (sessions and punctuation windows).
type Want struct {
	Rows  []Row
	Final int64
	Recut map[int]bool
}

// Windows computes the oracle rows of one query, registered as id: for every
// key (keyOf nil puts every event under key 0), each window holding at least
// one tuple that a watermark closes by final.
func Windows[V, A any](f aggregate.Function[V, A, float64], q Query[V], id int, keyOf func(V) int64, events []stream.Event[V], final int64) []Row {
	byKey := map[int64][]stream.Event[V]{}
	for _, e := range events {
		var k int64
		if keyOf != nil {
			k = keyOf(e.Value)
		}
		byKey[k] = append(byKey[k], e)
	}
	var rows []Row
	for k, ev := range byKey {
		for _, w := range Finals(f, q, ev, final) {
			if w.N > 0 {
				rows = append(rows, Row{Key: k, Query: id, Start: w.Start, End: w.End, N: w.N, Value: w.Value})
			}
		}
	}
	return rows
}

// Verdict counts how an operator's rows differ from the oracle's.
type Verdict struct {
	Expected   int // windows the oracle expects
	Wrong      int // last row's count or value differs from the oracle's
	Missing    int // expected, never emitted
	Unexpected int // non-empty, closed, and unknown to the oracle
	Twice      int // announced again, without the update flag, with another result
	First      string
}

// Failed is the number of windows that failed any rule.
func (v Verdict) Failed() int { return v.Wrong + v.Missing + v.Unexpected + v.Twice }

func (v Verdict) String() string {
	return fmt.Sprintf("%d wrong, %d missing, %d unexpected, %d announced twice of %d windows; first: %s",
		v.Wrong, v.Missing, v.Unexpected, v.Twice, v.Expected, v.First)
}

func (v *Verdict) note(format string, args ...any) {
	if v.First == "" {
		v.First = fmt.Sprintf(format, args...)
	}
}

// Check compares an operator's rows, in emission order, with the oracle's.
// The rules, stated once for every harness:
//
//   - the last row per (key, query, start, end) wins, so updates supersede;
//   - a window is announced once: a second non-update row with another
//     result is a failure (a count-in-time window re-triggers the same
//     extent, with the same result, when no tuple arrived in between);
//   - rows of windows only the closing drain flushes (End-1 > want.Final)
//     are provisional and skipped;
//   - empty windows are excluded on both sides: an operator prints n=0 rows
//     only for spans it happens to exist over;
//   - a window of a Recut query the oracle does not know is allowed if it
//     nests with one the oracle knows, of the same key and query: a row
//     cannot be retracted, so a session a late tuple later extended, or a
//     punctuation window a late marker later split, keeps the row it was
//     announced with. Every other query's extents are fixed, so any window
//     the oracle does not know is unexpected;
//   - values compare within approx's tolerance.
func Check(rows []Row, want Want) Verdict {
	v := Verdict{Expected: len(want.Rows)}
	last := make(map[Window]Row, len(want.Rows))
	announced := map[Window]Row{}
	for _, r := range rows {
		w := r.Window()
		if !r.Update {
			if a, ok := announced[w]; ok && (a.N != r.N || !approx(a.Value, r.Value)) {
				v.Twice++
				v.note("window %+v announced twice: n=%d v=%v, then n=%d v=%v", w, a.N, a.Value, r.N, r.Value)
			}
			announced[w] = r
		}
		if r.End-1 > want.Final {
			continue
		}
		last[w] = r
	}
	expected := make(map[Window]bool, len(want.Rows))
	for _, w := range want.Rows {
		expected[w.Window()] = true
		g, ok := last[w.Window()]
		switch {
		case !ok:
			v.Missing++
			v.note("window %+v never emitted (want n=%d v=%v)", w.Window(), w.N, w.Value)
		case g.N != w.N || !approx(g.Value, w.Value):
			v.Wrong++
			v.note("window %+v ends on n=%d v=%v, want n=%d v=%v", w.Window(), g.N, g.Value, w.N, w.Value)
		}
	}
	var nested map[[2]int64][]Row // (key, query) → the oracle's windows
	for w, r := range last {
		if expected[w] || r.N == 0 {
			continue
		}
		if nested == nil {
			nested = map[[2]int64][]Row{}
			for _, o := range want.Rows {
				k := [2]int64{o.Key, int64(o.Query)}
				nested[k] = append(nested[k], o)
			}
		}
		if !want.Recut[w.Query] || !nests(nested[[2]int64{w.Key, int64(w.Query)}], w) {
			v.Unexpected++
			v.note("unexpected window %+v (n=%d v=%v)", w, r.N, r.Value)
		}
	}
	return v
}

// nests reports whether w lies inside, or contains, one of the windows.
func nests(windows []Row, w Window) bool {
	for _, o := range windows {
		if (o.Start <= w.Start && w.End <= o.End) || (w.Start <= o.Start && o.End <= w.End) {
			return true
		}
	}
	return false
}

// approx is the float tolerance every comparison shares: equal, both NaN, or
// within 1e-6 absolute or 1e-9 relative.
func approx(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-6 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Diff compares two runs that must be identical: within each group that by
// names (nil: one group), the same rows in the same order, values bit for
// bit (NaN equal to NaN: an empty window's median or last value). It returns
// "" when they are, else the first difference.
func Diff(want, got []Row, by func(Row) int64) string {
	if by == nil {
		by = func(Row) int64 { return 0 }
	}
	group := func(rows []Row) map[int64][]Row {
		m := map[int64][]Row{}
		for _, r := range rows {
			m[by(r)] = append(m[by(r)], r)
		}
		return m
	}
	w, g := group(want), group(got)
	for k, ws := range w {
		gs := g[k]
		for i := range ws {
			if i >= len(gs) {
				return fmt.Sprintf("group %d: %d rows, want %d", k, len(gs), len(ws))
			}
			a, b := gs[i], ws[i]
			if math.IsNaN(a.Value) && math.IsNaN(b.Value) {
				a.Value, b.Value = 0, 0
			}
			if a != b {
				return fmt.Sprintf("group %d row %d is %+v, want %+v", k, i, gs[i], ws[i])
			}
		}
		if len(gs) != len(ws) {
			return fmt.Sprintf("group %d: %d rows, want %d", k, len(gs), len(ws))
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d groups of rows, want %d", len(g), len(w))
	}
	return ""
}

// Last returns the row every non-empty window of a run ends on, in order of
// first emission: a run's results as Check reads them, so that one run can be
// the Want of another (final-value identity).
func Last(rows []Row) []Row {
	at := map[Window]int{}
	var out []Row
	for _, r := range rows {
		if i, ok := at[r.Window()]; ok {
			out[i] = r
			continue
		}
		at[r.Window()] = len(out)
		out = append(out, r)
	}
	kept := out[:0]
	for _, r := range out {
		if r.N > 0 {
			kept = append(kept, r)
		}
	}
	return kept
}

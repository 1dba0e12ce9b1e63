package fleet

import (
	"math/rand"
	"testing"

	"scotty/internal/core"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// winParam is a stream-independent window description (definitions are
// stateful, so each operator needs fresh instances).
type winParam struct {
	session bool
	length  int64 // gap for sessions
	slide   int64
}

func (p winParam) def() window.Definition {
	if p.session {
		return window.Session[stream.Tuple](p.length)
	}
	return window.Sliding(stream.Time, p.length, p.slide)
}

// randParams draws a correlated fleet: mostly periodic windows over a shared
// granularity base (so factoring opportunities exist), a sprinkle of exact
// duplicates and sessions.
func randParams(rng *rand.Rand, n int, sessions bool) []winParam {
	base := []int64{250, 500, 1000}[rng.Intn(3)]
	var out []winParam
	for len(out) < n {
		r := rng.Intn(10)
		switch {
		case r == 0 && sessions:
			out = append(out, winParam{session: true, length: 500 + rng.Int63n(1500)})
		case r <= 2 && len(out) > 0: // exact duplicate
			out = append(out, out[rng.Intn(len(out))])
		default:
			slide := base * (1 + rng.Int63n(4))
			length := base * (1 + rng.Int63n(8))
			if length < slide {
				length, slide = slide, length
			}
			out = append(out, winParam{length: length, slide: slide})
		}
	}
	return out
}

type emission struct {
	start, end int64
	value      float64
	n          int64
	update     bool
}

type seqMap map[int][]emission

func collect(dst seqMap, rs []core.Result[float64]) {
	for _, r := range rs {
		dst[r.Query] = append(dst[r.Query], emission{r.Start, r.End, r.Value, r.N, r.Update})
	}
}

// rows flattens a run into reference rows, query by query.
func (s seqMap) rows() []reference.Row {
	var out []reference.Row
	for q, es := range s {
		for _, e := range es {
			out = append(out, reference.Row{Query: q, Start: e.start, End: e.end, N: e.n, Value: e.value, Update: e.update})
		}
	}
	return out
}

// same requires the fleet to emit, per logical query, the unshared run's
// sequence (reference.Diff).
func same(t *testing.T, label string, unshared, fleet seqMap) {
	t.Helper()
	if d := reference.Diff(unshared.rows(), fleet.rows(), func(r reference.Row) int64 { return int64(r.Query) }); d != "" {
		t.Errorf("%s: fleet vs unshared: %s", label, d)
	}
}

// sameFinals requires every window to end on the unshared run's result
// (reference.Check with that run's last rows as the oracle).
func sameFinals(t *testing.T, label string, unshared, fleet seqMap) {
	t.Helper()
	want := reference.Want{Rows: reference.Last(unshared.rows()), Final: stream.MaxTime}
	if v := reference.Check(fleet.rows(), want); v.Failed() > 0 {
		t.Errorf("%s: fleet vs unshared: %v", label, v)
	}
}

package core_test

import (
	"fmt"
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/core"
	"scotty/internal/differential"
	"scotty/internal/stream"
)

// The core's randomized workloads, the keyed differential and the sliding +
// session regression, as cases of the one differential harness.

// TestRandomizedWorkloads: drawn mixes of window types, measures, aggregates,
// stores, orders, disorder, lateness, batch carving and mid-stream changes
// on the slicing core, against the oracle.
func TestRandomizedWorkloads(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		c := differential.Draw(int64(trial), benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing)
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) { differential.Run(t, c) })
	}
}

// TestKeyedDifferential: both representations of the keyed operator —
// slice-major, and one operator per key forced by a trailing session — on
// skewed key spaces with and without disorder, at every batch size, against
// the oracle; on in-order streams the two also emit the same rows, n=0 gap
// rows included.
func TestKeyedDifferential(t *testing.T) {
	n := 12_000
	if testing.Short() {
		n = 4_000
	}
	sets := []struct {
		name  string
		specs []differential.Spec
	}{
		{"tumbling", []differential.Spec{{Kind: differential.Tumbling, A: 1000}}},
		{"sliding", []differential.Spec{{Kind: differential.Sliding, A: 4000, B: 1000}}},
		{"two-queries", []differential.Spec{{Kind: differential.Tumbling, A: 1000}, {Kind: differential.Sliding, A: 2500, B: 1000}}},
	}
	for _, keys := range []int{5, 500, 5000} {
		for _, set := range sets {
			for _, disordered := range []bool{false, true} {
				keys, set, disordered := keys, set, disordered
				t.Run(fmt.Sprintf("keys=%d/%s/disorder=%v", keys, set.name, disordered), func(t *testing.T) {
					t.Parallel()
					for _, perKey := range []bool{false, true} {
						for _, bs := range []int{7, 256, 0} {
							c := differential.Case{Tech: benchutil.Keyed, Specs: set.specs, Period: 1000, Lag: 2001, Lateness: 2000,
								Keys: keys, Events: n, MaxStep: 3, Seed: int64(keys + len(set.name)), Batch: bs}
							if perKey {
								// A session gap shorter than the disorder:
								// late tuples open sessions between the
								// periodic edges. Its own rows are not
								// compared (ROADMAP item 8).
								c.Specs = append(c.Specs, differential.Spec{Kind: differential.Session, A: 700})
								c.Forcing = true
							}
							if disordered {
								c.Disorder = stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: 7}
							}
							op, rows := differential.Run(t, c)
							if st := op.Op.(*core.Keyed[int32, stream.Tuple, float64, float64]).Stats(); st.Dropped != 0 || st.Tuples != int64(n) {
								t.Errorf("%v: stats %+v, want %d tuples and no drops", c, st, n)
							}
							empty := 0
							for _, r := range rows {
								if r.N == 0 {
									empty++
								}
							}
							if keys >= 500 && !disordered && empty == 0 {
								t.Errorf("%v: no n=0 gap row; the stream lost its silent keys", c)
							}
						}
					}
				})
			}
		}
	}
}

// TestSlidingPlusSessionUnderDisorder: a session whose gap is shorter than
// the disorder, sharing an out-of-order operator with a sliding window. The
// sliding edges cut the session's gaps into populated slices, so a late tuple
// that opens a session there puts its edge inside one (Fig 4's shared-session
// rule keeps tuples). Seeds 0–199: none panics, and every window ends on the
// oracle's value.
func TestSlidingPlusSessionUnderDisorder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		differential.Run(t, differential.Case{Tech: benchutil.LazySlicing,
			Specs:    []differential.Spec{{Kind: differential.Sliding, A: 4000, B: 1000}, {Kind: differential.Session, A: 700}},
			Disorder: stream.Disorder{Fraction: 0.2, MaxDelay: 3500, Seed: seed}, Period: 1000, Lag: 2001, Lateness: 2000,
			Keys: 1, Events: 400, MaxStep: 1500, Seed: seed, Batch: 1})
	}
}

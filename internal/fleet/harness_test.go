package fleet_test

import (
	"math/rand"
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/differential"
	"scotty/internal/fleet"
	"scotty/internal/stream"
)

// The fleet oracle as cases of the one differential harness: a fleet with
// dedup and factor-window rewriting is, per logical query, the unshared
// core's emission sequence, and both are the oracle's windows.

// fleetSpecs draws a correlated fleet: mostly periodic windows over a shared
// granularity base (so factoring opportunities exist), a sprinkle of exact
// duplicates and sessions.
func fleetSpecs(rng *rand.Rand, n int, sessions bool) []differential.Spec {
	base := []int64{250, 500, 1000}[rng.Intn(3)]
	var out []differential.Spec
	for len(out) < n {
		r := rng.Intn(10)
		switch {
		case r == 0 && sessions:
			out = append(out, differential.Spec{Kind: differential.Session, A: 500 + rng.Int63n(1500)})
		case r <= 2 && len(out) > 0: // exact duplicate
			out = append(out, out[rng.Intn(len(out))])
		default:
			slide, length := base*(1+rng.Int63n(4)), base*(1+rng.Int63n(8))
			if length < slide {
				length, slide = slide, length
			}
			out = append(out, differential.Spec{Kind: differential.Sliding, A: length, B: slide})
		}
	}
	return out
}

// oracleCase is a fleet case over a correlated query set on a dense stream.
func oracleCase(specs []differential.Spec, seed int64, batch int) differential.Case {
	return differential.Case{Tech: benchutil.FleetSlicing, Specs: specs, Period: 1000, Lag: 1,
		Keys: 1, Events: 20_000, MaxStep: 20, Seed: seed, Batch: batch}
}

// TestOracleRandomizedWorkloads: drawn correlated fleets, in and out of
// order, over every store.
func TestOracleRandomizedWorkloads(t *testing.T) {
	legs := []struct {
		name     string
		ordered  bool
		tech     benchutil.Technique
		disorder stream.Disorder
		lateness int64
		sessions bool
	}{
		{name: "ordered-lazy", ordered: true, tech: benchutil.FleetSlicing, sessions: true},
		{name: "ordered-eager", ordered: true, tech: benchutil.FleetEager, sessions: true},
		{name: "ordered-daba", ordered: true, tech: benchutil.FleetDABA},
		{name: "unordered-inorder-lazy", tech: benchutil.FleetSlicing, sessions: true},
		{name: "ooo-lazy", tech: benchutil.FleetSlicing, sessions: true,
			disorder: stream.Disorder{Fraction: 0.2, MaxDelay: 900, Seed: 7}, lateness: 2000},
		{name: "ooo-eager", tech: benchutil.FleetEager, sessions: true,
			disorder: stream.Disorder{Fraction: 0.25, MaxDelay: 700, Seed: 8}, lateness: 1500},
	}
	for _, lg := range legs {
		lg := lg
		t.Run(lg.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed * 77))
				c := oracleCase(fleetSpecs(rng, 6+rng.Intn(8), lg.sessions), seed, 1)
				c.Ordered, c.Tech, c.Disorder, c.Lag, c.Lateness = lg.ordered, lg.tech, lg.disorder, lg.disorder.MaxDelay+1, lg.lateness
				differential.Run(t, c)
			}
		})
	}
}

// TestOracleFactoringEngages pins a fleet the cost model must factor, and
// checks the plan's shape as well as result identity, so the oracle cannot
// pass because nothing was rewritten.
func TestOracleFactoringEngages(t *testing.T) {
	var specs []differential.Spec
	for i := int64(1); i <= 8; i++ {
		specs = append(specs, differential.Spec{Kind: differential.Sliding, A: i * 1000, B: 250})
	}
	specs = append(specs, specs[0], specs[3]) // duplicates
	op, _ := differential.Run(t, oracleCase(specs, 5, 1))
	p := op.Op.(*fleet.Fleet[stream.Tuple, float64, float64]).Plan()
	if p.Factored == 0 {
		t.Fatalf("cost model did not factor the correlated fleet: %+v", p)
	}
	if p.Physical >= p.Logical {
		t.Fatalf("sharing saved nothing: %+v", p)
	}
	if p.RewriteHits == 0 || p.TouchesSaved == 0 {
		t.Fatalf("rewrite counters flat: %+v", p)
	}
}

// TestOracleBatchFinals drives a disordered fleet through ProcessBatch in
// several chunkings. Batched runs may interleave update and completion rows
// differently (factored completions flush at batch end), so each is held
// against the oracle, not against the element run's sequence.
func TestOracleBatchFinals(t *testing.T) {
	specs := fleetSpecs(rand.New(rand.NewSource(99)), 8, true)
	for _, bs := range []int{7, 256, 0} {
		c := oracleCase(specs, 21, bs)
		c.Disorder, c.Lag, c.Lateness = stream.Disorder{Fraction: 0.15, MaxDelay: 800, Seed: 3}, 801, 1500
		differential.Run(t, c)
	}
}

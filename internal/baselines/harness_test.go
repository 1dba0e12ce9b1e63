package baselines_test

import (
	"fmt"
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/differential"
)

// TestRandomizedBaselineWorkloads: the baselines face the same drawn cases as
// the slicing core, from the one differential harness (its gaps name what
// it does not draw for them yet). Every seed runs on every baseline, each
// decoding the seed's shape for itself; a window set a baseline rejects by
// rule is asserted to be rejected. Streams are 800–1820 tuples.
func TestRandomizedBaselineWorkloads(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	techs := []benchutil.Technique{benchutil.Pairs, benchutil.Cutty, benchutil.Buckets,
		benchutil.TupleBuckets, benchutil.TupleBuffer, benchutil.AggTree}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			for _, tech := range techs {
				c := differential.Draw(int64(trial), tech)
				c.Events += 700
				t.Run(string(tech), func(t *testing.T) { differential.Run(t, c) })
			}
		})
	}
}

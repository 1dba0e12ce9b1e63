package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	// Value <= boundary lands in that bucket; above the last boundary lands
	// in the +Inf overflow bucket.
	for _, tc := range []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {10, 0}, {10.5, 1}, {20, 1}, {29.999, 2}, {30, 2}, {30.001, 3}, {1e12, 3},
	} {
		h := NewHistogram([]float64{10, 20, 30})
		h.Observe(tc.v)
		counts := h.BucketCounts()
		for i, c := range counts {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, c, want)
			}
		}
	}
	if got := len(h.BucketCounts()); got != 4 {
		t.Fatalf("3 boundaries must give 4 buckets, got %d", got)
	}
}

func TestExponentialAndLinearBounds(t *testing.T) {
	exp := ExponentialBounds(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExponentialBounds = %v, want %v", exp, want)
		}
	}
	lin := LinearBounds(0, 100, 4)
	wantLin := []float64{0, 100, 200, 300}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Fatalf("LinearBounds = %v, want %v", lin, wantLin)
		}
	}
	if def := DefaultLatencyBounds(); len(def) != 61 || def[0] != 1 {
		t.Fatalf("DefaultLatencyBounds: len=%d first=%v", len(def), def[0])
	}
}

func TestAscendingBoundsEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending boundaries must panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestQuantilesOnKnownDistribution checks the estimator against an exactly
// known distribution: the integers 1..10000 observed once each, with linear
// buckets of width 100. Every quantile estimate must fall within one bucket
// width of the true value.
func TestQuantilesOnKnownDistribution(t *testing.T) {
	h := NewHistogram(LinearBounds(100, 100, 100)) // 100, 200, ..., 10000
	const n = 10000
	// Shuffled deterministic order, so the test also exercises interleaving.
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm {
		h.Observe(float64(i + 1))
	}
	if h.Count() != n {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != n {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	if math.Abs(h.Sum()-float64(n*(n+1)/2)) > 1e-6 {
		t.Fatalf("sum %v", h.Sum())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.10, 1000}, {0.25, 2500}, {0.50, 5000}, {0.90, 9000}, {0.99, 9900}, {1, 10000},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 100 {
			t.Errorf("Quantile(%v) = %v, want %v ± 100 (one bucket width)", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(0); got > 101 {
		t.Errorf("Quantile(0) = %v, want ~min", got)
	}
	qs := h.Quantiles()
	if qs["max"] != n {
		t.Errorf("Quantiles()[max] = %v", qs["max"])
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(1.5)
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Fatalf("single observation quantile = %v", got)
	}
	if h.Mean() != 1.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

// TestQuantileOverflowBucketClampsToMax is the regression test for the +Inf
// overflow bucket: with every observation above the last finite boundary, a
// rank landing in the overflow bucket must return the observed max — never a
// value interpolated toward +Inf, and never +Inf itself (a non-finite
// quantile would poison the registry's JSON encoding).
func TestQuantileOverflowBucketClampsToMax(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	for _, v := range []float64{100, 200, 300, 400} {
		h.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		if got != 400 {
			t.Errorf("Quantile(%v) = %v, want observed max 400", q, got)
		}
	}
	for name, v := range h.Quantiles() {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("Quantiles()[%s] = %v, want finite", name, v)
		}
	}

	// Even an infinite observation must not leak out of Quantile: the
	// overflow bucket falls back to the last finite boundary when the max
	// itself is not finite.
	h2 := NewHistogram([]float64{10, 20})
	h2.Observe(math.Inf(1))
	if got := h2.Quantile(0.99); got != 20 {
		t.Errorf("Quantile(0.99) with +Inf mass = %v, want last finite boundary 20", got)
	}
}

// TestQuantilesIncludeTailSet: the fixed reporting set must carry the tail
// quantiles the latency gate consumes, monotonically ordered.
func TestQuantilesIncludeTailSet(t *testing.T) {
	h := NewHistogram(LinearBounds(10, 10, 100))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	qs := h.Quantiles()
	for _, name := range []string{"p50", "p90", "p95", "p99", "p999", "max"} {
		if _, ok := qs[name]; !ok {
			t.Fatalf("Quantiles() missing %q: %v", name, qs)
		}
	}
	if !(qs["p50"] <= qs["p99"] && qs["p99"] <= qs["p999"] && qs["p999"] <= qs["max"]) {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
}

// TestQuantileClampedToObservedRange: estimates never leave [min, max], even
// when the populated buckets are much wider than the data.
func TestQuantileClampedToObservedRange(t *testing.T) {
	h := NewHistogram([]float64{1000, 2000})
	h.Observe(400)
	h.Observe(500)
	h.Observe(600)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 400 || got > 600 {
			t.Errorf("Quantile(%v) = %v, outside observed [400, 600]", q, got)
		}
	}
}

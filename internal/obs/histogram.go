package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-boundary bucketed histogram. An observation of value v
// lands in the first bucket whose upper boundary is >= v; values above the
// last boundary land in the implicit +Inf overflow bucket. Updates are one
// atomic add on the bucket plus atomic min/max/sum maintenance; reads are
// consistent enough for monitoring (buckets are loaded independently, so a
// concurrent snapshot can be off by in-flight observations, never corrupt).
//
// Quantiles are estimated by linear interpolation inside the bucket that
// contains the requested rank, clamped to the observed min and max — the
// standard fixed-bucket estimator (Prometheus' histogram_quantile), whose
// error is bounded by the bucket width.
type Histogram struct {
	bounds []float64      // ascending upper boundaries; implicit +Inf last
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// NewHistogram creates a histogram with the given ascending bucket
// boundaries. A nil or empty bounds slice selects DefaultLatencyBounds.
// Boundaries must be strictly ascending; violations panic.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram boundaries must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefaultLatencyBounds is the default bucket layout: 2 decades-per-octave
// exponential coverage from 1 to ~1e9 (nanoseconds: 1ns..1s; milliseconds:
// 1ms..11.5 days), 61 buckets.
func DefaultLatencyBounds() []float64 {
	return ExponentialBounds(1, math.Sqrt2, 61)
}

// ExponentialBounds returns n boundaries start, start*factor, start*factor².
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExponentialBounds requires start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBounds returns n boundaries start, start+width, start+2*width.
func LinearBounds(start, width float64, n int) []float64 {
	if width <= 0 || n <= 0 {
		panic("obs: LinearBounds requires width > 0, n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observed value, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observed value, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Bounds returns the bucket boundaries (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket counts; the last entry is
// the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the containing bucket, clamped
// to the observed min/max. A rank landing in the +Inf overflow bucket clamps
// to the observed max (the bucket has no finite width to interpolate within)
// and the result is always finite. It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		// The rank falls in bucket i: [lo, hi) with hi = bounds[i].
		if i == len(h.bounds) {
			// The +Inf overflow bucket has no finite upper edge, so there
			// is no width to interpolate within: fabricating a point
			// between the last boundary and the max pretends precision the
			// histogram does not have, and with an infinite observation it
			// would return +Inf — which poisons the registry's JSON
			// encoding (encoding/json rejects +Inf). Clamp to
			// the observed max; if even the max is non-finite, fall back
			// to the last finite boundary.
			if m := h.Max(); !math.IsInf(m, 0) && !math.IsNaN(m) {
				return m
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := h.Min()
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.Max()
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	if m := h.Max(); !math.IsInf(m, 0) && !math.IsNaN(m) {
		return m
	}
	return h.bounds[len(h.bounds)-1]
}

// Quantiles returns the standard quantile set as name -> estimate.
func (h *Histogram) Quantiles() map[string]float64 {
	out := make(map[string]float64, len(sortedQuantiles)+1)
	for _, sq := range sortedQuantiles {
		out[sq.Name] = h.Quantile(sq.Q)
	}
	out["max"] = h.Max()
	return out
}

// atomicAddFloat adds delta to a float64 stored as bits in an atomic.Uint64.
func atomicAddFloat(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		newV := math.Float64bits(math.Float64frombits(old) + delta)
		if a.CompareAndSwap(old, newV) {
			return
		}
	}
}

func atomicMinFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

package core

import (
	"scotty/internal/obs"
	"scotty/internal/stream"
)

// metricsSet bundles the aggregator's registry-backed instrumentation: the
// operator counters the benchmark harness has always read through Stats(),
// now backed by atomic obs metrics so a live /metrics endpoint can observe a
// running operator without racing the processing goroutine.
//
// When several aggregators share one registry (Options.Metrics — e.g. the
// per-key operators of a Keyed wrapper), the counters aggregate across all of
// them; per-operator Stats() then reports the shared totals. Operators with
// a nil Options.Metrics get a private registry and stay exact.
type metricsSet struct {
	tuples     *obs.Counter // data tuples ingested
	splits     *obs.Counter // slice splits (§5.2)
	merges     *obs.Counter // slice merges (§5.2)
	recomputes *obs.Counter // slice aggregates rebuilt from stored tuples
	shifts     *obs.Counter // count-shift cascade steps (Fig 6)
	dropped    *obs.Counter // tuples later than the allowed lateness
	slices     *obs.Gauge   // current slice count in the aggregate store
	wmLag      *obs.Gauge   // event-time lag of the watermark behind the stream front (ms)
}

func newMetricsSet(r *obs.Registry) *metricsSet {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &metricsSet{
		tuples:     r.Counter("core_tuples_total"),
		splits:     r.Counter("core_splits_total"),
		merges:     r.Counter("core_merges_total"),
		recomputes: r.Counter("core_recomputes_total"),
		shifts:     r.Counter("core_shifts_total"),
		dropped:    r.Counter("core_dropped_late_total"),
		slices:     r.Gauge("core_slices"),
		wmLag:      r.Gauge("core_watermark_lag_ms"),
	}
}

// SliceInfo describes one slice of the aggregate store for debug snapshots
// (the /debug/slices endpoint of cmd/scotty).
type SliceInfo struct {
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	CStart int64 `json:"cstart"`
	N      int64 `json:"n"`
	// Keys is the number of keys holding a partial in the slice; only a
	// keyed operator's shared ring (Keyed.SliceSnapshot) reports it.
	Keys int `json:"keys,omitempty"`
}

// SliceSnapshot copies the current slice layout. It must be called from the
// processing goroutine (like every other Aggregator method); publish the
// returned value — e.g. through an atomic.Value — to share it with a
// concurrent debug endpoint.
func (ag *Aggregator[V, A, Out]) SliceSnapshot() []SliceInfo {
	out := make([]SliceInfo, len(ag.st.slices))
	for i, s := range ag.st.slices {
		out[i] = SliceInfo{Start: s.Start, End: s.End, CStart: s.CStart, N: s.N}
	}
	return out
}

// Registry returns the registry holding the aggregator's metrics (the one
// passed in Options.Metrics, or the private one created for a nil option).
func (ag *Aggregator[V, A, Out]) Registry() *obs.Registry { return ag.reg }

// publishGauges syncs the registry view with the operator state: the slice
// and watermark-lag gauges, and the ingested-tuples counter (flushed as a
// delta from the plain totalCount so the per-element hot path stays free of
// atomic operations). Called once per watermark; splits/merges/recomputes/
// shifts/dropped update their counters immediately because they live off the
// in-order fast path, so between watermarks only the tuple count can lag.
func (ag *Aggregator[V, A, Out]) publishGauges() {
	if d := ag.st.totalCount - ag.tuplesPublished; d > 0 {
		ag.m.tuples.Add(d)
		ag.tuplesPublished = ag.st.totalCount
	}
	ag.m.slices.Set(int64(len(ag.st.slices)))
	lag := ag.st.maxSeen - ag.currWM
	if ag.currWM == stream.MinTime || ag.st.maxSeen == stream.MinTime || lag < 0 {
		lag = 0 // no lag before the first watermark or after the closing one
	}
	ag.m.wmLag.Set(lag)
}

package fleet

import "scotty/internal/obs"

// metricsSet holds the sharing layer's observability handles (the names are
// part of the /metrics contract, see docs/OBSERVABILITY.md):
//
//	query_logical_total       gauge   registered logical queries
//	query_physical_total      gauge   live physical queries on the core,
//	                                  including factor windows
//	rewrite_hits_total        counter emissions answered from a factor ring
//	                                  instead of the slice store
//	slice_touches_saved_total counter slice folds direct emissions would have
//	                                  spent minus the ring and chain combines
//	                                  an emission pass spent
//	fleet_plan_runs_total     counter runs of the factoring optimizer (one
//	                                  per burst of registrations)
//	fleet_plan_ns_total       counter wall time those runs took
type metricsSet struct {
	logical      *obs.Gauge
	physical     *obs.Gauge
	rewriteHits  *obs.Counter
	touchesSaved *obs.Counter
	planRuns     *obs.Counter
	planNS       *obs.Counter
}

func newMetricsSet(r *obs.Registry) *metricsSet {
	return &metricsSet{
		logical:      r.Gauge("query_logical_total"),
		physical:     r.Gauge("query_physical_total"),
		rewriteHits:  r.Counter("rewrite_hits_total"),
		touchesSaved: r.Counter("slice_touches_saved_total"),
		planRuns:     r.Counter("fleet_plan_runs_total"),
		planNS:       r.Counter("fleet_plan_ns_total"),
	}
}

package main

import (
	"encoding/json"
	"io"
)

// e2eMetric is one end-to-end metric: what a user of scotty on a pipe sees.
// bound is the share of the parent's median by which it may get worse before
// a change counts as a regression; README.md records the A/A spreads the
// bounds were set from.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

var e2eMetrics = []e2eMetric{
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_tuple", "ns", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"emit_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is one per-layer metric of the traced run. moves names the
// end-to-end metric and workload a change in it should show up in.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	{"aggregate.fold.ns_per_tuple", "ns", "lower", "none: the roofline every other ns_per_tuple is a multiple of"},
	{"stream.feed.ns_per_tuple", "ns", "lower", "cpu_ns_per_tuple, tuples_per_s on csv-inorder-1q"},
	{"core.element.ns_per_tuple", "ns", "lower", "tuples_per_s, cpu_ns_per_tuple on csv-inorder-1q (ProcessElement is what scotty calls); none on csv-ooo-fleet64"},
	{"core.batch.ns_per_tuple", "ns", "lower", "none until scotty batches; then as core.element"},
	{"core.allocs_per_tuple", "count", "lower", "cpu_ns_per_tuple, peak_rss_mb on csv-inorder-1q"},
	{"core.batch.eager.ns_per_tuple", "ns", "lower", "none: end-to-end runs use the lazy store; prices the variant"},
	{"core.batch.daba.ns_per_tuple", "ns", "lower", "none: end-to-end runs use the lazy store; prices the variant"},
	{"core.ooo.ns_per_tuple", "ns", "lower", "tuples_per_s, cpu_ns_per_tuple on csv-ooo-fleet64"},
	{"core.watermark.ns_per_row", "ns", "lower", "tuples_per_s on csv-ooo-fleet64; emit_ms on paced-4q"},
	{"core.updates", "count", "lower", "none: a count of the work the out-of-order stream causes"},
	{"core.results", "count", "higher", "none: a count; must equal the fleet's"},
	{"core.slices.max", "count", "lower", "peak_rss_mb on csv-ooo-fleet64"},
	{"core.dropped", "count", "lower", "must be 0: a dropped tuple is a failed window end to end"},
	{"fleet.batch.ns_per_tuple", "ns", "lower", "tuples_per_s on csv-ooo-fleet64 and paced-4q only"},
	{"fleet.watermark.ns_per_row", "ns", "lower", "tuples_per_s on csv-ooo-fleet64; emit_ms on paced-4q"},
	{"fleet.logical_queries", "count", "higher", "none: plan size"},
	{"fleet.physical_queries", "count", "lower", "tuples_per_s on csv-ooo-fleet64"},
	{"fleet.share_ratio", "ratio", "higher", "tuples_per_s on csv-ooo-fleet64"},
	{"fleet.vs_unshared", "ratio", "lower", "tuples_per_s on csv-ooo-fleet64: below 1 the sharing layer pays"},
	{"keyed.batch.ns_per_tuple", "ns", "lower", "tuples_per_s on csv-keyed-zipf10k; none elsewhere"},
	{"keyed.watermark.ns_per_key", "ns", "lower", "tuples_per_s, emit_ms on csv-keyed-zipf10k"},
	{"keyed.keys", "count", "lower", "none: state size of the input"},
	{"keyed.resident_bytes", "B", "lower", "peak_rss_mb on csv-keyed-zipf10k"},
	{"keyed.top1_key_share", "ratio", "lower", "none: skew of the input"},
	{"spill.ns_per_tuple", "ns", "lower", "none: -mem-budget is off end to end; prices the spill tier"},
	{"spill.stores", "count", "lower", "none today"},
	{"spill.loads", "count", "lower", "none today"},
	{"spill.resident_share", "ratio", "lower", "none today"},
	{"checkpoint.snapshot_ms", "ms", "lower", "none: guards the state format"},
	{"checkpoint.bytes", "B", "lower", "none: guards the state format"},
	{"checkpoint.restore_ms", "ms", "lower", "none: guards the state format"},
	{"engine.p1.tuples_per_s", "1/s", "higher", "none today (scotty does not use the engine); tuples_per_s everywhere once it does"},
	{"engine.pN.tuples_per_s", "1/s", "higher", "as engine.p1; workers share cores here, so scaling is not claimed"},
	{"engine.pN.partitions", "count", "higher", "none: N of engine.pN"},
	{"engine.gomaxprocs", "count", "higher", "none: recorded with the engine rungs"},
	{"engine.p1.overhead_ns_per_tuple", "ns", "lower", "as engine.p1: the engine's cost over the keyed operator it wraps"},
	{"engine.queue_stall_share", "ratio", "lower", "as engine.p1: share of the run the source sat blocked on full partition queues"},
	{"engine.cpu_util", "cores", "higher", "as engine.p1"},
	{"engine.partition_skew", "ratio", "lower", "as engine.p1: max / mean events per partition"},
	{"engine.accounting_ok", "bool", "higher", "must be 1"},
	{"ops.edge.ns_per_msg", "ns", "lower", "engine.p1.overhead_ns_per_tuple"},
	{"scotty.wall_s", "s", "lower", "tuples_per_s on the traced workload"},
	{"scotty.user_s", "s", "lower", "cpu_ns_per_tuple on the traced workload"},
	{"scotty.sys_s", "s", "lower", "cpu_ns_per_tuple on the traced workload"},
	{"scotty.bytes_in", "B", "lower", "none: input size"},
	{"scotty.rows_out", "count", "lower", "none: output size"},
	{"scotty.bytes_out", "B", "lower", "tuples_per_s on csv-ooo-fleet64"},
	{"scotty.first_row_ms", "ms", "lower", "emit_ms on the traced workload"},
	{"scotty.update_rows", "count", "lower", "none: a count of re-emissions"},
	{"scotty.emit_p50_ms", "ms", "lower", "none: the median where emit_ms is the fast tenth (this one child run, uncorrected)"},
	{"scotty.emit_tail_ms", "ms", "lower", "none: the tail latency, reported without a bound (README.md says why)"},
	{"scotty.emit_tail_pct", "%", "higher", "none: which percentile scotty.emit_tail_ms is, the highest with ten samples beyond it"},
	{"scotty.emit_samples", "count", "higher", "none: rows the two latency figures are taken over"},
	{"scotty.inprocess_ns_per_tuple", "ns", "lower", "cpu_ns_per_tuple on the traced workload: the operator's part of it"},
	{"scotty.unattributed_ns_per_tuple", "ns", "lower", "cpu_ns_per_tuple on the traced workload: parse, hand-off, formatting, flush and runtime, unseen from outside"},
	{"scotty.pN.tuples_per_s", "1/s", "higher", "none: csv-inorder-1q with the default GOMAXPROCS on every CPU, where the measured children run on one"},
	{"gen.late_p99_ms", "ms", "lower", "none: above 5 ms a paced-4q run is invalid, not slow"},
	{"gen.write_blocked_share", "ratio", "lower", "none: share of wall time the writer sat in write calls (closed loop: the child cannot accept more)"},
	{"trace.overhead_share", "ratio", "lower", "none: traced against untraced time of the core.batch rung"},
	{"trace.spans", "count", "lower", "none: size of the trace"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long the child runs and
// set-ups of one end-to-end measurement last in total.
const runSeconds = 25

// writeManifest prints BENCHMARK.json from the tables above, so the file
// and the program cannot disagree.
func writeManifest(w io.Writer) error {
	type entry map[string]any
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, entry{"name": wl.name, "why": wl.why})
	}
	for _, e := range e2eMetrics {
		m.EndToEnd = append(m.EndToEnd, entry{"name": e.name, "unit": e.unit, "better": e.better, "bound": e.bound})
	}
	for _, l := range layerMetrics {
		m.PerLayer = append(m.PerLayer, entry{"name": l.name, "unit": l.unit, "better": l.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

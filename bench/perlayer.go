package main

import (
	"fmt"
	"sort"
)

// perLayer is the traced run: one scotty child on the workload's input for
// the scotty.* and gen.* figures, that input replayed in-process through the
// operator scotty builds, and then the whole ladder. Spans are written to
// bench/out/trace-<workload>.json when the run ends.
func perLayer(w workload, opt options) (*result, error) {
	p, _, err := setUp(w, opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	r, err := measureOnce(p, false)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Attempted, res.Failed = r.verdict.expected, r.verdict.failed()
	res.Correct = res.Failed == 0
	if r.verdict.firstError != "" {
		fmt.Fprintf(opt.log, "oracle: %s\n", r.verdict.firstError)
	}
	n := float64(len(p.in.events))
	run := r.run
	res.set("scotty.wall_s", run.wall.Seconds(), "s")
	res.set("scotty.user_s", run.user.Seconds(), "s")
	res.set("scotty.sys_s", run.sys.Seconds(), "s")
	res.set("scotty.bytes_in", float64(len(p.in.csv)), "B")
	res.set("scotty.rows_out", float64(r.rows), "count")
	res.set("scotty.bytes_out", float64(len(run.out)), "B")
	res.set("scotty.first_row_ms", r.firstRowMS, "ms")
	res.set("scotty.update_rows", float64(r.updateRows), "count")
	lat := summarize(r.emitMS)
	res.set("scotty.emit_p50_ms", lat.median, "ms")
	res.set("scotty.emit_tail_ms", lat.tail, "ms")
	res.set("scotty.emit_tail_pct", lat.tailPct, "%")
	res.set("scotty.emit_samples", float64(lat.n), "count")
	res.set("gen.write_blocked_share", float64(run.writeBusy)/float64(run.wall), "ratio")
	late := 0.0
	if len(run.genLate) > 0 {
		late = quantile(sorted(run.genLate), 99)
	}
	res.set("gen.late_p99_ms", late, "ms")

	// The measured children run on one scheduler thread and one CPU; this
	// is csv-inorder-1q the way scotty runs when started by hand.
	pn, _, err := setUp(workloads[0], opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	rn, err := measureOnce(pn, true)
	if err != nil {
		return nil, err
	}
	res.Attempted += rn.verdict.expected
	res.Failed += rn.verdict.failed()
	res.set("scotty.pN.tuples_per_s", float64(len(pn.in.events))/rn.run.wall.Seconds(), "1/s")

	tr := newTracer()
	inproc := inProcess(tr, p.in)
	res.set("scotty.inprocess_ns_per_tuple", inproc, "ns")
	res.set("scotty.unattributed_ns_per_tuple", float64(run.user+run.sys)/n-inproc, "ns")
	if err := climb(tr, opt.seed, opt.scale, res); err != nil {
		return nil, err
	}
	res.set("trace.spans", float64(len(tr.spans)), "count")
	path, err := tr.write(w.name)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(opt.log, "trace: %d spans in %s; self time (span minus its children) by span name:\n", len(tr.spans), path)
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(opt.log, "  %-32s %10.3f ms\n", name, ms(self[name]))
	}
	return res, nil
}

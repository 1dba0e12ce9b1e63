package main

import (
	"fmt"
	"time"
)

// setupEvery is how often a measurement sets up again between child runs.
// setup_s is taken over set-ups spread across the whole measurement for the
// same reason every other metric is taken over many short child runs (see
// best): the machine is slow for seconds at a time.
const setupEvery = 5 * time.Second

// setup is one timed set-up.
type setup struct{ seconds, avail float64 }

// e2eRun is one end-to-end measurement: the child runs that fit into
// opt.seconds, each on the same input, and the set-ups between them.
type e2eRun struct {
	p      *prepared
	setups []setup
	reps   []*rep
}

func (m *e2eRun) setUp(w workload, opt options) error {
	before := readCPU()
	p, d, err := setUp(w, opt.seed, opt.scale)
	if err != nil {
		return err
	}
	if m.p != nil && p.in.sha256 != m.p.in.sha256 {
		return fmt.Errorf("seed %d generated two different inputs (%s, %s)", opt.seed, m.p.in.sha256, p.in.sha256)
	}
	m.p = p
	m.setups = append(m.setups, setup{d.Seconds(), availability(before, readCPU())})
	return nil
}

func measure(w workload, opt options) (*e2eRun, error) {
	m := &e2eRun{}
	start := time.Now()
	for len(m.reps) == 0 || time.Since(start).Seconds() < opt.seconds {
		if time.Since(start) >= time.Duration(len(m.setups))*setupEvery {
			if err := m.setUp(w, opt); err != nil {
				return nil, err
			}
		}
		r, err := measureOnce(m.p, false)
		if err != nil {
			return nil, err
		}
		m.reps = append(m.reps, r)
	}
	return m, nil
}

// best is how a measurement turns its child runs into one figure: the
// second smallest of one value per child run (the smallest of fewer than
// three). On the shared virtual machines this benchmark has to hold its
// bounds on, the same child on the same input takes 150 ms or 260 ms of CPU
// time for seconds to minutes at a stretch with no steal reported (the
// machine's memory gets slow: a pointer chase over 8 MiB next to it goes
// from 37 to 125 ns a step), and more when the hypervisor takes the CPU away.
// Everything the machine does to a child run makes it slower, never faster,
// so the fast end of many short child runs is the program's own time, and it
// is what repeats from one measurement to the next; the median does not
// (README.md has the A/A figures). The very fastest is left out as a guard
// against a single mis-measured run.
func best(values []float64) float64 {
	s := sorted(values)
	if len(s) < 3 {
		return s[0]
	}
	return s[1]
}

// quietAvail is the availability from which a timed section counts as
// undisturbed: no steal to speak of fell into it.
const quietAvail = 0.98

// bestOf is best over the undisturbed sections (child runs, set-ups) as
// measured, if there are at least three; else over all of them, corrected
// for steal by net. The correction is a fallback for a measurement that
// steal left nothing of: it is calibrated on sections where steal is spread
// out, and a section the hypervisor froze for a second comes out seven times
// too fast, which best would then pick.
func bestOf(avail []float64, value func(i int) float64, net func(x, avail float64) float64) float64 {
	var quiet, all []float64
	for i, a := range avail {
		all = append(all, net(value(i), a))
		if a >= quietAvail {
			quiet = append(quiet, value(i))
		}
	}
	if len(quiet) >= 3 {
		return best(quiet)
	}
	return best(all)
}

// over collects one number per child run.
func (m *e2eRun) over(f func(*rep) float64) []float64 {
	out := make([]float64, len(m.reps))
	for i, r := range m.reps {
		out[i] = f(r)
	}
	return out
}

// pooled collects every sample of every child run.
func (m *e2eRun) pooled(f func(*rep) []float64) []float64 {
	var out []float64
	for _, r := range m.reps {
		out = append(out, f(r)...)
	}
	return out
}

// endToEnd measures the scotty child with tracing off. Every metric is
// computed per child run and reported as the best of them.
func endToEnd(w workload, opt options) (*result, error) {
	m, err := measure(w, opt)
	if err != nil {
		return nil, err
	}
	n := float64(len(m.p.in.events))
	res := newResult()
	for _, r := range m.reps {
		res.Attempted += r.verdict.expected
		res.Failed += r.verdict.failed()
		if r.verdict.firstError != "" {
			fmt.Fprintf(opt.log, "oracle: %s (missing %d, unexpected %d, wrong %d, malformed %d)\n",
				r.verdict.firstError, r.verdict.missing, r.verdict.unexpected, r.verdict.wrong, r.verdict.malformed)
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("the input is too short for any window to close: nothing to check")
	}

	avail := m.over(func(r *rep) float64 { return r.avail })
	setupAvail := make([]float64, len(m.setups))
	for i, s := range m.setups {
		setupAvail[i] = s.avail
	}
	res.set("setup_s", bestOf(setupAvail, func(i int) float64 { return m.setups[i].seconds }, net), "s")
	// Open loop: the schedule sets the pace, so the wall time is not
	// corrected for steal.
	open := w.rate > 0
	netWall := net
	if open {
		netWall = func(x, _ float64) float64 { return x }
	}
	res.set("tuples_per_s", n/bestOf(avail, func(i int) float64 { return m.reps[i].run.wall.Seconds() }, netWall), "1/s")
	res.set("cpu_ns_per_tuple", bestOf(avail, func(i int) float64 { return float64(m.reps[i].run.user+m.reps[i].run.sys) / n }, netCPU), "ns")
	res.set("peak_rss_mb", best(m.over(func(r *rep) float64 { return float64(r.run.maxRSSKB) / 1024 })), "MB")
	// The latency of a child run is a percentile over its rows. Closed
	// loop: the median; a row that was quicker than that was written while
	// the generator had fallen behind and the pipe was not full. Open loop:
	// the 10th percentile, for the reason best gives: when the machine is
	// slow for minutes, half the bursts of every child run are slow and the
	// median is the machine's, while some bursts of every child run still
	// go through at the program's own speed. Median and tail over all rows
	// are printed below and are per-layer metrics of the traced run.
	pct := 50.0
	if open {
		pct = 10
	}
	res.set("emit_ms", bestOf(avail, func(i int) float64 { return quantile(sorted(m.reps[i].emitMS), pct) }, net), "ms")

	fmt.Fprintf(opt.log, "input: %d tuples, %d bytes, sha256 %s; %d child runs, %d set-ups\n", len(m.p.in.events), len(m.p.in.csv), m.p.in.sha256, len(m.reps), len(m.setups))
	lat := summarize(m.pooled(func(r *rep) []float64 { return r.emitMS }))
	lost := m.over(func(r *rep) float64 { return 1 - r.avail })
	fmt.Fprintf(opt.log, "emit latency over all child runs, uncorrected: p50 %.3f ms, p%g %.3f ms, %d samples\n", lat.median, lat.tailPct, lat.tail, lat.n)
	cpu := sorted(m.over(func(r *rep) float64 { return float64(r.run.user+r.run.sys) / n }))
	fmt.Fprintf(opt.log, "CPU ns per tuple over the child runs, uncorrected: fastest %.0f, median %.0f, slowest %.0f\n", cpu[0], quantile(cpu, 50), cpu[len(cpu)-1])
	quiet := 0
	for _, a := range avail {
		if a >= quietAvail {
			quiet++
		}
	}
	fmt.Fprintf(opt.log, "steal took %.1f%% of the CPU time of the median child run (at most %.1f%%); %d of %d child runs were undisturbed\n", 100*median(lost), 100*maxOf(lost), quiet, len(avail))
	if open {
		late := summarize(m.pooled(func(r *rep) []float64 { return r.run.genLate }))
		fmt.Fprintf(opt.log, "open loop at %.0f tuples/s in bursts of %d: generator late p50 %.3f ms, p%g %.3f ms over %d bursts\n",
			w.rate, w.burst, late.median, late.tailPct, late.tail, late.n)
	}
	return res, nil
}

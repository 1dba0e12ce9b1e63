// Command bench is the repository's benchmark: a load generator that drives
// the built scotty binary over stdin/stdout pipes for the end-to-end metrics
// (tracing off), and a separate traced run that replays generated inputs
// in-process through each layer's exported API for the per-layer metrics.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory explains them.
//
// The benchmark runs from the repository root:
//
//	sh bench/run.sh --workload csv-inorder-1q --seed 1 --seconds 25 --trace 0
//	sh bench/run.sh                 # every workload, both modes
//	sh bench/run.sh -selfcheck      # two sets of runs must agree within the bounds
//	sh bench/run.sh -repeat 10      # median, quartiles and spread over 10 seeds
//	sh bench/run.sh -table          # regenerate bench/LADDER.md
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when any output
// row disagrees with internal/reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// options are the settings one run shares; they come from the command line.
type options struct {
	seed    int64
	seconds float64
	// scale multiplies every tuple count; 1 except under -smoke.
	scale float64
	log   io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (default: all of them, traced and untraced)")
		seed      = fs.Int64("seed", 1, "input seed: the same seed gives byte-identical inputs")
		seconds   = fs.Float64("seconds", runSeconds, "how long the measured section of an end-to-end run lasts")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics on the scotty child; 1: per-layer metrics from the traced in-process run")
		smoke     = fs.Bool("smoke", false, "50% tuple counts and a single child run: exercises build, pipe, parse, oracle and report; the numbers mean nothing")
		selfcheck = fs.Bool("selfcheck", false, "run the end-to-end set twice, order alternated, and fail if a metric differs by more than its bound")
		repeat    = fs.Int("repeat", 0, "run the end-to-end set this many times on consecutive seeds and report median, quartiles and spread")
		table     = fs.Bool("table", false, "run the traced set and write bench/LADDER.md")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json from the workload and metric tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, scale: 1, log: stdout}
	if *smoke {
		opt.scale, opt.seconds = 0.5, 0
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	var err error
	var res *result
	switch {
	case *manifest:
		err = writeManifest(stdout)
	case *selfcheck:
		err = selfCheck(selected, opt)
	case *repeat > 0:
		err = repeatRuns(selected, opt, *repeat)
	case *table:
		err = writeLadder(selected, opt)
	case *name == "":
		res, err = runAll(selected, opt)
	default:
		res, err = runOne(selected[0], opt, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if res == nil {
		return 0
	}
	return finish(res, stdout, stderr)
}

// runAll is "one command prints every metric by name": every workload,
// untraced then traced, with the metrics of all of them in one result.
func runAll(ws []workload, opt options) (*result, error) {
	res := newResult()
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			r, err := runOne(w, opt, traced)
			if err != nil {
				return nil, err
			}
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			for k, m := range r.Metrics {
				res.Metrics[w.name+"/"+k] = m
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// finish prints the result line and turns a correctness failure into a
// non-zero exit code.
func finish(res *result, stdout, stderr io.Writer) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in one mode and prints its metrics by name.
func runOne(w workload, opt options, traced bool) (*result, error) {
	var res *result
	var err error
	mode := "end-to-end (tracing off)"
	if traced {
		mode = "per-layer (traced, in-process)"
		res, err = perLayer(w, opt)
	} else {
		res, err = endToEnd(w, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(opt.log, "== %s  %s  seed %d\n", w.name, mode, opt.seed)
	if traced {
		for _, l := range layerMetrics {
			fmt.Fprintf(opt.log, "%-34s %14.6g %-6s -> %s\n", l.name, res.Metrics[l.name].Value, l.unit, l.moves)
		}
	} else {
		for _, e := range e2eMetrics {
			fmt.Fprintf(opt.log, "%-34s %14.6g %-6s (%s is better, bound %.0f%%)\n", e.name, res.Metrics[e.name].Value, e.unit, e.better, 100*e.bound)
		}
	}
	fmt.Fprintf(opt.log, "windows checked %d, failed %d (failed_share %.6f)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

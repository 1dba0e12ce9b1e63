// Command benchmark regenerates the tables and figures of the paper's
// evaluation (§6). Each figure is one sub-experiment:
//
//	benchmark -fig 8          # in-order throughput, context-free windows
//	benchmark -fig 9          # throughput with disorder + session windows
//	benchmark -fig 10         # memory consumption
//	benchmark -fig 11         # output latency of aggregate stores
//	benchmark -fig 12         # impact of stream order
//	benchmark -fig 13         # impact of aggregation functions
//	benchmark -fig 14         # holistic aggregations across techniques
//	benchmark -fig 15         # split (recompute) cost
//	benchmark -fig 16         # impact of window measures
//	benchmark -fig 17         # parallel stream slicing
//	benchmark -fig taillat    # per-tuple tail latency of the slice stores
//	benchmark -fig fleet      # factor-window sharing across correlated queries
//	benchmark -fig membound   # keyed state under a memory budget (spill tier)
//	benchmark -fig table1     # memory formulas vs measurement
//	benchmark -fig ablation   # design-choice ablations
//	benchmark -fig all        # everything
//
// -full selects the paper-sized configuration (several minutes); the default
// quick scale finishes in well under a minute per figure and preserves every
// trend.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"scotty/internal/benchutil"
	"scotty/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "experiment id: "+strings.Join(experiments.IDs(), ", ")+", or all")
	full := fs.Bool("full", false, "run at the paper-sized scale")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig == "" {
		fs.Usage()
		return 2
	}
	if *fig != "all" && !slices.Contains(experiments.IDs(), *fig) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *fig)
		return 2
	}
	out := stdout
	if *csv {
		out = benchutil.CSVWriter{Writer: stdout}
	}
	sc := experiments.Quick()
	scaleName := "quick"
	if *full {
		sc = experiments.Full()
		scaleName = "full"
	}
	fmt.Fprintf(stdout, "general stream slicing benchmark — GOMAXPROCS=%d, scale=%s\n",
		runtime.GOMAXPROCS(0), scaleName)
	if _, err := experiments.Run(*fig, out, sc); err != nil {
		fmt.Fprintf(stderr, "experiment %s: %v\n", *fig, err)
		return 1
	}
	return 0
}

// Command scotty runs an ad-hoc windowed aggregation over a CSV stream of
// "timestamp-ms,value[,key]" lines from stdin — or over a generated demo
// stream — using the general stream slicing operator. It demonstrates the
// operator as a standalone tool:
//
//	scotty -window tumbling -length 5000 -agg sum < events.csv
//	scotty -window session -gap 1000 -agg mean -demo 100000
//	scotty -window sliding -length 10000 -slide 2000 -agg p90 -ooo 0.2
//	scotty -window sliding -length 10000 -slide 2000 -store daba -demo 100000
//	scotty -windows sliding:10000:2000,sliding:20000:2000,tumbling:5000 -demo 100000
//	scotty -keyed -window tumbling -length 5000 -mem-budget 1048576 < keyed.csv
//
// Every run is the same pipeline over stream.Tuple: one source (the CSV feed
// or the demo generator, behind the optional -backpressure ingest edge), one
// operator, one row sink (optionally guarded by -breaker). What moves through
// it is a batch of items: one read of the input, scanned in one pass — each
// line parsed where it lies, rebased and written straight into one reused
// batch behind the watermarks it makes due (source.go's scanner, the one place
// a tuple becomes an item) — cut behind each watermark and each out-of-order
// event, handed to the operator's ProcessBatch, its result rows appended to
// one reused buffer. The flags only choose which operator sits in the middle:
// a bare slicing core, a -windows fleet, or — with -keyed — core.Keyed, which
// windows every key's sub-stream on its own (keyed.go; tumbling and sliding
// time windows share one slice ring across keys, sessions, count windows and
// -mem-budget get a core per key — the operator decides, no flag does). Key
// partitioning is the boundary the stream is split on (paper §5.3), nothing
// more: the key column is parsed in every mode and ignored unless -keyed is
// set, and an unkeyed run prints exactly what a one-key keyed run prints minus
// the key.
//
// -windows runs a fleet of concurrent window queries over one stream through
// the sharing layer (docs/SHARING.md): exact duplicates are deduplicated and
// correlated periodic time windows are rewritten onto cost-chosen factor
// windows, so the members share physical slicing work. Fleet result rows are
// prefixed with their logical query id (q0, q1, ...), keyed rows with k<key>.
//
// Input events may arrive out of order; results are emitted on periodic
// watermarks, each with one update row per window late events changed since
// the previous one. Epoch-millisecond timestamps
// are fine: time windows are internally rebased by a multiple of the slide
// (bounds print unchanged), so the run does not walk the empty windows
// between time zero and the first tuple.
//
// SIGINT or SIGTERM drains instead of killing: the feed stops, pending
// windows are flushed with a final watermark, and — when -checkpoint-dir is
// set — the operator state is snapshotted to <dir>/final.sck before the
// process exits 0. A later run with the same flags restores that snapshot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/checkpoint"
	"scotty/internal/core"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/ops"
	"scotty/internal/stream"
	"scotty/internal/window"
)

func main() {
	growPipe(os.Stdout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// The one element type of the CLI: every source produces tuples (the key is 0
// when the input carries none) and every operator consumes them.
type (
	event = stream.Event[stream.Tuple]
	item  = stream.Item[stream.Tuple]
)

// run is the testable command body: flags in, exit code out. Canceling ctx
// (a signal in production, a test hook here) stops the feed and triggers the
// drain-and-checkpoint shutdown path.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scotty", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		winType  = fs.String("window", "tumbling", "tumbling | sliding | session | count")
		windows  = fs.String("windows", "", "comma-separated fleet of window queries sharing one stream, e.g. 'sliding:10000:2000,tumbling:5000,session:1000,count:100' (overrides -window/-length/-slide/-gap)")
		length   = fs.Int64("length", 5000, "window length (ms, or tuples for -window count)")
		slide    = fs.Int64("slide", 0, "slide step for sliding windows (ms)")
		gap      = fs.Int64("gap", 1000, "inactivity gap for session windows (ms)")
		aggName  = fs.String("agg", "sum", "sum | count | mean | min | max | median | p90 | m4")
		store    = fs.String("store", "lazy", "slice store: lazy | eager | daba (daba assumes in-order input and forces -lateness 0)")
		demo     = fs.Int("demo", 0, "generate N demo events instead of reading stdin")
		ooo      = fs.Float64("ooo", 0, "fraction of demo events delivered out of order")
		lateness = fs.Int64("lateness", 2000, "allowed lateness (ms)")
		wmEvery  = fs.Int64("watermark", 1000, "watermark period (ms of event time)")
		metrics  = fs.String("metrics", "", "serve /metrics and /debug/slices on this address (:0 picks a free port; the URL is printed to stderr)")
		ckptDir  = fs.String("checkpoint-dir", "", "write a final operator snapshot to <dir>/final.sck on exit or SIGINT/SIGTERM, and restore it on start if present")
		keyed    = fs.Bool("keyed", false, "window each key's sub-stream independently (demo streams use the generator's key; CSV lines may carry one as 'ts,value,key'); rows are prefixed k<key>")
		budget   = fs.Int64("mem-budget", 0, "resident-bytes budget for keyed state; over budget, cold keys spill to -spill-dir (requires -keyed; 0 = unbounded)")
		spillDir = fs.String("spill-dir", "", "scratch directory for spilled key state (requires -mem-budget; default: a per-process dir under the system temp dir, removed on exit)")
		bpName   = fs.String("backpressure", "block", "ingest overload policy: block | drop-oldest | drop-newest | shed; non-block decouples input from processing through a bounded queue and sheds events under overload, counted in scotty_events_dropped_total")
		breaker  = fs.Bool("breaker", false, "guard row output with retry and a circuit breaker: rows the writer permanently rejects are dead-lettered (counted, and captured under -dlq-dir) instead of wedging or silently vanishing")
		dlqDir   = fs.String("dlq-dir", "", "directory receiving dead-lettered output rows as durable records (requires -breaker; read back with ops.ReadDLQ)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	policy, err := ops.ParsePolicy(*bpName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// The flag combinations rejected below name a resource nothing in the
	// run would use — they are meaningless, not unimplemented. Every other
	// combination is one configuration of the same pipeline.
	if *dlqDir != "" && !*breaker {
		fmt.Fprintln(stderr, "-dlq-dir requires -breaker") // only the guard dead-letters
		return 2
	}
	if *budget > 0 && !*keyed {
		fmt.Fprintln(stderr, "-mem-budget requires -keyed") // spilling evicts whole keys
		return 2
	}
	if *spillDir != "" && *budget <= 0 {
		fmt.Fprintln(stderr, "-spill-dir requires -mem-budget") // nothing spills without a budget
		return 2
	}

	// buildDefs turns the window flags into definitions plus the rebase step.
	// It runs once here to validate, then once per operator instance: the
	// trigger cursor lives in the definition, so each per-key operator needs
	// fresh ones, and re-parsing a validated set cannot fail.
	buildDefs := func(stderr io.Writer) ([]window.Definition, int64) {
		if *windows != "" {
			return parseWindows(*windows, stderr)
		}
		def, step := makeWindow(*winType, *length, *slide, *gap, stderr)
		if def == nil {
			return nil, 0
		}
		return []window.Definition{def}, step
	}
	defs, step := buildDefs(stderr)
	if len(defs) == 0 {
		return 2
	}

	var kind core.StoreKind
	switch *store {
	case "lazy":
		kind = core.StoreLazy
	case "eager":
		kind = core.StoreEager
	case "daba":
		kind = core.StoreDABA
	default:
		fmt.Fprintf(stderr, "unknown store %q\n", *store)
		return 2
	}
	ordered := kind == core.StoreDABA
	if ordered {
		// DABA rings are FIFO structures over closed slices; they require
		// the in-order processing mode, which admits no late tuples.
		if *ooo > 0 {
			fmt.Fprintln(stderr, "-store daba requires in-order input; drop -ooo")
			return 2
		}
		if *lateness != 0 {
			fmt.Fprintln(stderr, "note: -store daba forces -lateness 0 (in-order mode)")
			*lateness = 0
		}
	}

	// scotty's own series always count into reg (the summaries on stderr
	// read them back); without -metrics it is simply not served, and the
	// operator keeps its private registry.
	var ms *metricsServer
	reg := obs.NewRegistry()
	opts := core.Options{Lateness: *lateness, Store: kind, Ordered: ordered}
	if *metrics != "" {
		var err error
		if ms, err = startMetrics(*metrics, reg, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer ms.stop()
		opts.Metrics = reg
	}

	wm := stream.Watermarker{Period: *wmEvery, Lag: 2001}
	// Epoch-scale timestamps are rebased before they reach the operator:
	// window starts are absolute multiples of the slide, so a tumbling or
	// sliding query fed raw epoch milliseconds would otherwise emit (and
	// walk) hundreds of millions of a-priori-empty windows between time
	// zero and the first tuple. Shifting by a multiple of the slide maps
	// onto the identical window family; the offset is added back on output.
	rb := &rebaser{step: step, margin: wm.Lag + *lateness}

	env := runEnv{
		ctx: ctx, opts: opts, newDefs: buildDefs, keyed: *keyed, fleet: *windows != "",
		// Unkeyed fleets always print q<id>; keyed runs only when there is
		// more than one query to tell apart (the historical row shapes).
		qPrefix: *windows != "" && (!*keyed || len(defs) > 1),
		budget:  *budget, spillDir: *spillDir, ckptDir: *ckptDir, breaker: *breaker, dlqDir: *dlqDir,
		wm: wm, policy: policy, rb: rb, ms: ms, reg: reg, stdout: stdout, stderr: stderr,
	}
	if *demo > 0 {
		env.src = demoSource(*demo, *ooo)
	} else {
		env.src = csvSource(stdin, stderr, reg.Counter("scotty_lines_malformed_total"))
	}

	switch *aggName {
	case "sum":
		return runPipeline(aggregate.Sum(stream.Val), env)
	case "count":
		return runPipeline(aggregate.Count[stream.Tuple](), env)
	case "mean":
		return runPipeline(aggregate.Mean(stream.Val), env)
	case "min":
		return runPipeline(aggregate.Min(stream.Val), env)
	case "max":
		return runPipeline(aggregate.Max(stream.Val), env)
	case "median":
		return runPipeline(aggregate.Median(stream.Val), env)
	case "p90":
		return runPipeline(aggregate.Percentile(0.9, stream.Val), env)
	case "m4":
		return runPipeline(aggregate.M4(stream.Val), env)
	default:
		fmt.Fprintf(stderr, "unknown aggregation %q\n", *aggName)
		return 2
	}
}

// ingestQueueLen is the -backpressure ingest edge's capacity in items. Tight
// enough that a stalled operator visibly engages the policy, roomy enough
// that parsing jitter alone never drops.
const ingestQueueLen = 256

// metricsServer owns the optional observability endpoint: the operator's
// registry on /metrics (Prometheus text or JSON), the latest slice-layout
// snapshot on /debug/slices, and the readiness/liveness probe on /healthz.
type metricsServer struct {
	reg     *obs.Registry
	slices  atomic.Value // []core.SliceInfo, published from the processing loop
	ready   atomic.Bool  // set once the run loop is processing items
	breaker atomic.Value // func() ops.State, published when -breaker guards the sink
	srv     *http.Server
}

// healthz is the /healthz response body. Ready reports whether the run loop
// is up (readiness); the watermark lag, breaker state, and loss counters are
// the liveness signals an external prober alarms on.
type healthz struct {
	Ready          bool   `json:"ready"`
	WatermarkLagMS int64  `json:"watermark_lag_ms"`
	Breaker        string `json:"breaker,omitempty"`
	DroppedEvents  int64  `json:"dropped_events"`
	DeadRows       int64  `json:"dead_rows"`
}

func startMetrics(addr string, reg *obs.Registry, stderr io.Writer) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	ms := &metricsServer{reg: reg}
	ms.slices.Store([]core.SliceInfo{})
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(ms.reg))
	mux.HandleFunc("/debug/slices", func(w http.ResponseWriter, r *http.Request) {
		sl := ms.slices.Load().([]core.SliceInfo)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Count  int              `json:"count"`
			Slices []core.SliceInfo `json:"slices"`
		}{len(sl), sl})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := healthz{
			Ready:          ms.ready.Load(),
			WatermarkLagMS: ms.seriesTotal("core_watermark_lag_ms"),
			DroppedEvents:  ms.seriesTotal("scotty_events_dropped_total"),
			DeadRows:       ms.seriesTotal("scotty_rows_dead_lettered_total"),
		}
		code := http.StatusOK
		if f, ok := ms.breaker.Load().(func() ops.State); ok {
			state := f()
			h.Breaker = state.String()
			if state == ops.Open {
				code = http.StatusServiceUnavailable
			}
		}
		if !h.Ready {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(h)
	})
	ms.srv = &http.Server{Handler: mux}
	go ms.srv.Serve(ln)
	fmt.Fprintf(stderr, "metrics: http://%s/metrics\n", ln.Addr())
	return ms, nil
}

// seriesTotal sums every series of one metric name (labeled or not) in the
// registry — counters across their label sets, a plain gauge as itself.
func (ms *metricsServer) seriesTotal(name string) int64 {
	var total int64
	for _, m := range ms.reg.Snapshot() {
		if m.Value != nil && (m.Name == name || strings.HasPrefix(m.Name, name+"{")) {
			total += *m.Value
		}
	}
	return total
}

func (ms *metricsServer) stop() { ms.srv.Close() }

// makeWindow builds the window definition and reports the rebase step: the
// slide for time-measure periodic windows (whose edges are absolute multiples
// of it), 0 for windows that are translation-invariant (sessions) or rank-
// based (count) and need no rebasing. The parameter a window kind reads must
// be positive; -slide <= 0 keeps meaning "half the length".
func makeWindow(kind string, length, slide, gap int64, stderr io.Writer) (window.Definition, int64) {
	switch kind {
	case "tumbling", "sliding", "count":
		if length <= 0 {
			fmt.Fprintf(stderr, "-length must be positive for -window %s, got %d\n", kind, length)
			return nil, 0
		}
	case "session":
		if gap <= 0 {
			fmt.Fprintf(stderr, "-gap must be positive for -window session, got %d\n", gap)
			return nil, 0
		}
	}
	switch kind {
	case "tumbling":
		return window.Tumbling(stream.Time, length), length
	case "sliding":
		if slide <= 0 {
			slide = length / 2
		}
		return window.Sliding(stream.Time, length, slide), slide
	case "session":
		return window.Session[stream.Tuple](gap), 0
	case "count":
		return window.Tumbling(stream.Count, length), 0
	default:
		fmt.Fprintf(stderr, "unknown window type %q\n", kind)
		return nil, 0
	}
}

// parseWindows parses the -windows fleet list. Each entry is kind:params with
// the same parameters as the single-window flags: tumbling:length,
// sliding:length[:slide], session:gap, count:n. The combined rebase step is
// the LCM of the members' steps — the offset must be a multiple of every
// periodic member's step (and is then also a multiple of every factor
// window's, whose length divides a member slide) for the shifted window
// families to map one-to-one onto the absolute ones.
func parseWindows(list string, stderr io.Writer) ([]window.Definition, int64) {
	var defs []window.Definition
	var step int64
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		arg := func(i int) int64 {
			if i >= len(parts) {
				return 0
			}
			n, err := strconv.ParseInt(strings.TrimSpace(parts[i]), 10, 64)
			if err != nil || n <= 0 {
				return -1
			}
			return n
		}
		length, slide, gap := arg(1), arg(2), int64(0)
		if parts[0] == "session" {
			gap, length = length, 0
			if gap == 0 {
				gap = -1 // session needs an explicit positive gap
			}
		} else if length <= 0 {
			length = -1
		}
		if length < 0 || slide < 0 || gap < 0 || len(parts) > 3 {
			fmt.Fprintf(stderr, "-windows: malformed entry %q (want kind:length[:slide], session:gap, or count:n)\n", item)
			return nil, 0
		}
		def, s := makeWindow(parts[0], length, slide, gap, stderr)
		if def == nil {
			return nil, 0
		}
		defs = append(defs, def)
		step = lcmStep(step, s)
	}
	if len(defs) == 0 {
		fmt.Fprintln(stderr, "-windows: empty window list")
		return nil, 0
	}
	return defs, step
}

// lcmStep folds one member's rebase step into the fleet-wide one. Zero means
// "no constraint" (sessions are translation-invariant, count windows ignore
// timestamps). Wildly coprime slides can push the LCM past any real stream's
// span; beyond ~50 days of milliseconds rebasing is disabled instead of
// risking overflow — the run then pays the empty-window walk it would avoid.
func lcmStep(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	g := a
	for x := b; x != 0; g, x = x, g%x {
	}
	if l := a / g * b; l > 0 && l <= 1<<32 {
		return l
	}
	return 0
}

// rebaser shifts event timestamps into a small range before they reach the
// watermarker and operator, and shifts window bounds back on the way out.
// The offset is fixed at the first event: the largest multiple of step at or
// below firstTS-margin (clamped to 0, so small-timestamp streams pass through
// untouched). The margin covers the watermark lag plus the allowed lateness,
// so every event the operator would accept still rebases to a non-negative
// time. Because the offset is a multiple of the slide, the rebased window
// family maps one-to-one onto the absolute one — printed bounds are exact;
// the only difference is that the a-priori-empty windows between time zero
// and the first tuple are never materialized.
type rebaser struct {
	step   int64 // 0 disables rebasing
	margin int64
	off    int64
	set    bool
}

func (rb *rebaser) shift(ts int64) int64 {
	if rb.step <= 0 {
		return ts
	}
	if !rb.set {
		rb.set = true
		if lo := ts - rb.margin; lo > 0 {
			rb.off = lo - (lo % rb.step)
		}
	}
	return ts - rb.off
}

func (rb *rebaser) unshift(t int64) int64 { return t + rb.off }

// runEnv carries the aggregation-independent plumbing of one scotty run into
// runPipeline, which is generic over the aggregate's partial/result types.
type runEnv struct {
	ctx      context.Context
	opts     core.Options
	newDefs  func(stderr io.Writer) ([]window.Definition, int64) // fresh definitions per operator instance
	keyed    bool                                                // -keyed: every key's sub-stream windowed on its own
	fleet    bool                                                // -windows: unkeyed runs go through the sharing layer
	qPrefix  bool                                                // rows carry q<id>
	budget   int64
	spillDir string
	ckptDir  string
	breaker  bool
	dlqDir   string
	src      source
	wm       stream.Watermarker
	policy   ops.Policy
	rb       *rebaser
	ms       *metricsServer // nil without -metrics
	reg      *obs.Registry  // scotty's own series; served only with -metrics
	stdout   io.Writer
	stderr   io.Writer
}

// operator is the one processing surface of the pipeline: a single window on
// a bare slicing core, a -windows fleet sharing physical work across its
// members (dedup + factor-window rewrite, docs/SHARING.md), or a keyed operator.
// Thin adapters (unkeyedOp here, keyedOp in keyed.go) give all three the same
// method set — a batch in, rows with their optional key out — so the run
// loop, the row formatter, the metrics publisher, and the checkpoint
// seal/restore path are written once.
type operator[Out any] interface {
	// ProcessBatch ingests an arrival-ordered batch of events and watermarks
	// and appends a row for every result it caused, in emission order.
	ProcessBatch([]item, *rowBuf[Out])
	SliceSnapshot() []core.SliceInfo
	Snapshot() ([]byte, error)
	Restore([]byte) error
	Close() // releases what the operator holds outside the heap (spill files)
}

// single is the method set core.Aggregator and fleet.Fleet share.
type single[Out any] interface {
	AddQuery(window.Definition) (int, error)
	ProcessBatch([]item) []core.Result[Out]
	SliceSnapshot() []core.SliceInfo
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// unkeyedOp adapts a bare core or a fleet to the operator surface: its rows
// carry key 0, which is never printed.
type unkeyedOp[Out any] struct{ single[Out] }

func (u unkeyedOp[Out]) ProcessBatch(batch []item, rows *rowBuf[Out]) {
	rs := u.single.ProcessBatch(batch)
	for i := range rs {
		rows.add(0, &rs[i])
	}
}

func (u unkeyedOp[Out]) Close() {}

// newOperator builds the operator the flags select. A nil operator means the
// returned exit code is final. Registering the query set validates it; under
// -keyed the instance built here is only that probe — per-key operators, where
// the query set needs them, are built on demand and must not fail mid-stream.
func newOperator[A any, Out any](f aggregate.Function[stream.Tuple, A, Out], env runEnv) (operator[Out], int) {
	var ag single[Out]
	if env.fleet && !env.keyed {
		ag = fleet.New(f, fleet.Options{Options: env.opts})
	} else {
		ag = core.New(f, env.opts)
	}
	defs, _ := env.newDefs(io.Discard)
	for _, def := range defs {
		if _, err := ag.AddQuery(def); err != nil {
			fmt.Fprintln(env.stderr, err)
			return nil, 2
		}
	}
	if env.keyed {
		return newKeyedOperator(f, env)
	}
	if env.fleet {
		fmt.Fprintf(env.stderr, "%s\n", ag)
	}
	return unkeyedOp[Out]{ag}, 0
}

// feed runs the source through its scanner into op, a batch at a time, calls
// blockDone behind the last batch of every piece of input the source handed
// over, and returns the source's read error.
//
// A batch is what one read of the input returned — never topped up, so a
// paced source is processed as it arrives — with the watermarks that became
// due written in between, and cut behind every item that can make the
// operator emit. That is a watermark, so that no ProcessBatch call holds more
// results than one watermark releases and the run loop can flush behind each
// (a late event marks the windows it changes, and the next watermark emits
// their update rows); and, in ordered mode, where a tuple doubles as a
// watermark, every item. A fleet emits a call's factored rows behind its
// direct ones and a keyed operator groups a call's rows by key: with at most
// one emitting item to a call, rows come out in the order per-item processing
// gives, however the input was split into reads.
//
// A non-block policy decouples ingest from processing through a bounded
// ops.Edge in front of whichever operator runs: the source goroutine parses
// and sends, this loop receives one-item batches, and under overload whole
// events are dropped by the policy — counted, never silent. Watermarks are
// control flow and never dropped; with no piece of input on this side of the
// queue, each one ends a block. Drops fall on whatever event is at the
// queue's edge, so under -keyed the loss is spread over keys in proportion to
// their traffic.
func (env *runEnv) feed(op func([]item), blockDone func()) error {
	ctx, stop := context.WithCancel(env.ctx)
	defer stop()
	// No final watermark when the source ends: EOF and cancellation share the
	// shutdown path in runPipeline, which snapshots the resumable state and
	// then drains — the snapshot must not see MaxTime as the watermark.
	pump := func(send func([]item), blockDone func()) error {
		var orderErr error
		if env.opts.Ordered {
			send = env.inOrder(send, stop, &orderErr)
		}
		err := env.src(ctx, &scanner{ctx: ctx, rb: env.rb, feeder: stream.NewFeeder[stream.Tuple](env.wm), send: send, blockDone: blockDone})
		if orderErr != nil {
			return orderErr
		}
		return err
	}
	if env.policy == ops.Block {
		return pump(op, blockDone)
	}

	dropped := env.reg.Counter("scotty_events_dropped_total", obs.L("reason", env.policy.String()))
	edge := ops.NewEdge(ops.EdgeConfig[item]{
		Capacity: ingestQueueLen,
		Policy:   env.policy,
		CanDrop:  func(it item) bool { return it.Kind == stream.KindEvent },
		OnDrop:   func(item) { dropped.Inc() },
	})
	var err error
	go func() {
		err = pump(func(batch []item) {
			for _, it := range batch {
				edge.Send(it)
			}
		}, nil)
		edge.Close()
	}()
	var one [1]item
	for {
		var ok bool
		if one[0], ok = edge.Recv(); !ok {
			break
		}
		op(one[:])
		if one[0].Kind == stream.KindWatermark {
			blockDone()
		}
	}
	if n := dropped.Value(); n > 0 {
		fmt.Fprintf(env.stderr, "backpressure: dropped %d events (%s)\n", n, env.policy)
	}
	return err
}

// inOrder is ordered mode (-store daba) in front of send. Ordered mode has no
// path for a late tuple and a tuple doubles as a watermark, so a batch is
// passed on one item at a time, each event checked against the latest event
// time before it on its key (one key unless -keyed, where every key has an
// operator of its own). The first event older than that ends the input: what
// came before it is processed and drained, it and everything after it are
// dropped, *err names it, and stop ends the source. The check runs per item
// here, behind the scanner, and never on an unordered run's path.
func (env *runEnv) inOrder(send func([]item), stop func(), err *error) func([]item) {
	last := map[int32]int64{}
	return func(batch []item) {
		for i := range batch {
			if *err != nil {
				return
			}
			if it := &batch[i]; it.Kind == stream.KindEvent {
				k := int32(0)
				if env.keyed {
					k = it.Event.Value.Key
				}
				if prev, seen := last[k]; seen && it.Event.Time < prev {
					on := ""
					if env.keyed {
						on = fmt.Sprintf(" on key %d", k)
					}
					*err = fmt.Errorf("timestamp %d after %d%s is out of order; -store daba takes in-order input only",
						env.rb.unshift(it.Event.Time), env.rb.unshift(prev), on)
					stop()
					return
				}
				last[k] = it.Event.Time
			}
			send(batch[i : i+1])
		}
	}
}

// runPipeline is the one run loop: restore, source → operator → sink until
// the input ends or ctx is canceled, then snapshot and drain.
func runPipeline[A any, Out any](f aggregate.Function[stream.Tuple, A, Out], env runEnv) int {
	rb, ms, stdout, stderr := env.rb, env.ms, env.stdout, env.stderr
	ag, code := newOperator(f, env)
	if ag == nil {
		return code
	}
	defer ag.Close()

	// The same recovery metric series the dataflow engine exposes, so a
	// scraped scotty run reports its checkpoint activity under familiar
	// names: restores count as recoveries, the final snapshot observes its
	// size and write latency.
	ckptPath := ""
	var recoveries *obs.Counter
	var ckptBytes, ckptDurMS *obs.Histogram
	if env.ckptDir != "" {
		recoveries = env.reg.Counter("engine_recoveries_total")
		ckptBytes = env.reg.Histogram("checkpoint_bytes", obs.ExponentialBounds(64, 4, 12))
		ckptDurMS = env.reg.Histogram("checkpoint_duration_ms", nil)
		if err := os.MkdirAll(env.ckptDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
		ckptPath = filepath.Join(env.ckptDir, "final.sck")
		if data, err := os.ReadFile(ckptPath); err == nil {
			if err := restoreFinal(ag, rb, data); err != nil {
				fmt.Fprintf(stderr, "checkpoint: ignoring %s: %v\n", ckptPath, err)
			} else {
				fmt.Fprintf(stderr, "checkpoint: restored state from %s\n", ckptPath)
				recoveries.Inc()
			}
		}
	}

	// The sink sits behind whichever operator runs: stdout, or — with
	// -breaker — the guarded rowSink. Both are handed the one row buffer the
	// operator appends to. Stdout is written when a block of input ends and
	// whenever outBufSize bytes have piled up before that, so a row waits for
	// at most one block's processing and the pipe sees one write per block,
	// not one per watermark.
	var sink *rowSink
	if env.breaker {
		var err error
		if sink, err = newRowSink(&env); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer sink.finish()
	}
	rows := &rowBuf[Out]{keyed: env.keyed, qPrefix: env.qPrefix, rb: rb, appendValue: valueAppender[Out]()}
	updateRows := env.reg.Counter("scotty_update_rows_total")
	deliver := func(blockEnd bool) {
		if blockEnd && rows.updates > 0 {
			updateRows.Add(rows.updates)
			rows.updates = 0
		}
		if rows.n == 0 {
			return
		}
		if sink != nil {
			// Guarded egress offers each result batch to the writer on its
			// own, so a rejected batch is dead-lettered whole.
			sink.write(rows.buf, rows.n)
		} else if blockEnd || len(rows.buf) >= outBufSize {
			// A writer that rejects rows is what -breaker guards against; without
			// it the run carries on, as it always has.
			_, _ = stdout.Write(rows.buf)
		} else {
			return
		}
		rows.buf, rows.n = rows.buf[:0], 0
	}
	defer deliver(true)
	process := func(batch []item) {
		ag.ProcessBatch(batch, rows)
		deliver(false)
		// Watermarks bound the debug staleness for a streaming source:
		// publish a fresh slice snapshot.
		if ms != nil && batch[len(batch)-1].Kind == stream.KindWatermark {
			sl := ag.SliceSnapshot()
			for i := range sl {
				sl[i].Start = rb.unshift(sl[i].Start)
				sl[i].End = rb.unshift(sl[i].End)
			}
			ms.slices.Store(sl)
		}
	}
	if ms != nil {
		ms.ready.Store(true) // the run loop is up: /healthz turns ready
	}
	feedErr := env.feed(process, func() { deliver(true) })

	// Shutdown: snapshot first, then drain. The snapshot captures the
	// resumable mid-stream state (buffered slices plus the true watermark
	// position); the MaxTime drain that follows flushes every pending
	// window as a provisional final row. A restored run re-emits those
	// windows once the continuation stream completes them for real.
	if ckptPath != "" {
		start := time.Now()
		data, err := sealFinal(ag, rb)
		if err == nil {
			err = checkpoint.WriteFileAtomic(ckptPath, data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
		ckptBytes.Observe(float64(len(data)))
		ckptDurMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		fmt.Fprintf(stderr, "checkpoint: wrote %s (%d bytes)\n", ckptPath, len(data))
	}
	process([]item{stream.WatermarkItem[stream.Tuple](stream.MaxTime)})
	if feedErr != nil {
		// The input broke off (a read error, a line past the length
		// limit): everything before it was processed and drained above, but
		// the run is not the whole stream — say so and fail.
		fmt.Fprintf(stderr, "input: %v\n", feedErr)
		return 1
	}
	return 0
}

// sealFinal wraps the operator snapshot together with the rebase offset.
// The snapshot stores rebased window bounds and the watermark position, so a
// resumed run must keep shifting by the same offset: recomputing it from the
// continuation's first (later) event would misalign the restored state and
// the new tuples, and every printed bound would be off by the difference.
// The core, fleet, and keyed snapshot codecs are distinct (a fleet snapshot
// nests the core's plus the sharing plan, a keyed one is either the shared
// slice ring with its key directory or a core's per key, cold keys' spilled
// blobs included), so a checkpoint written by one run shape is rejected — and
// ignored with a warning — when restored by another; -keyed with and without
// -mem-budget are two shapes.
func sealFinal[Out any](ag operator[Out], rb *rebaser) ([]byte, error) {
	state, err := ag.Snapshot()
	if err != nil {
		return nil, err
	}
	enc := checkpoint.NewEncoder()
	enc.Int64(rb.off)
	enc.Bool(rb.set)
	enc.Bytes(state)
	return enc.Seal(), nil
}

// restoreFinal is the inverse of sealFinal: operator state into ag, the
// recorded rebase offset into rb (pinned, so the first continuation event
// does not recompute it).
func restoreFinal[Out any](ag operator[Out], rb *rebaser, data []byte) error {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	off := dec.Int64()
	set := dec.Bool()
	state := dec.Bytes()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := ag.Restore(state); err != nil {
		return err
	}
	rb.off, rb.set = off, set
	return nil
}

// outBufSize is how many bytes of rows may wait for the end of the block
// before they are written out regardless: a pipe buffer's worth, so that a
// block that emits more than that still costs a few writes, not one per
// watermark (docs/PERFORMANCE.md, "The ingest and emission path").
const outBufSize = 16 << 10

// stdoutPipeSize is the buffer scotty asks for when its stdout is a pipe
// (growPipe, at start; Linux only). A block of input can release more rows
// than the default 64 KiB buffer holds, and a reader that wakes per write
// then stalls the run on a full pipe until it catches up; a quarter MiB
// leaves the reader that slack (docs/PERFORMANCE.md, "The ingest and
// emission path").
const stdoutPipeSize = 256 << 10

// rowBuf is the one reused output buffer: operators append a rendered row per
// result, the run loop hands the bytes to the sink and resets it. A row is
// "[start, end)\t n=N\t value", prefixed k<key> under -keyed and q<id> for
// fleets, suffixed "  (update)" for corrections.
type rowBuf[Out any] struct {
	buf []byte
	n   int // rows in buf
	// updates counts the "  (update)" rows rendered since the run loop last
	// published them to scotty_update_rows_total, once per block.
	updates        int64
	keyed, qPrefix bool
	rb             *rebaser
	appendValue    func([]byte, Out) []byte
	// A fleet's watermark releases a row per query for the same window end:
	// "q<id>\t" per query id and ", <end>)\t n=" of the last end printed are
	// rendered once and copied. Its rows' starts are a few dozen values, and
	// a keyed watermark's rows all share one: "[<start>" is rendered once
	// into a small direct-mapped cache and copied from there.
	qTags  []tag
	end    int64
	endTag tag
	starts [1 << startBits]startTag
}

// startBits sizes rowBuf's start cache: 1<<startBits slots.
const startBits = 6

// tag is a rendered piece of a row, copied into the row as one fixed-size
// move rather than a copy of its length: put writes all of b and keeps n.
type tag struct {
	b [32]byte
	n int
}

// startTag is one rendered "[<start>" in the start cache; n 0 is an empty
// slot.
type startTag struct {
	tag
	start int64
}

// rowRoom is the room add makes in buf before a row, so that put never
// writes past its capacity: "k<key>\t", "q<id>\t" and "[<start>" take at most
// 13 + 21 + 21 bytes, and the last put writes 32.
const rowRoom = 128

// rowPad is what add appends to make room, and then cuts off again.
var rowPad [rowRoom]byte

// put appends t; buf has room for all of t.b (add made it).
func (w *rowBuf[Out]) put(t *tag) {
	l := len(w.buf)
	*(*[32]byte)(w.buf[l : l+32]) = t.b
	w.buf = w.buf[:l+t.n]
}

//slicelint:hotpath
func (w *rowBuf[Out]) add(key int32, r *core.Result[Out]) {
	if cap(w.buf)-len(w.buf) < rowRoom {
		w.buf = append(w.buf, rowPad[:]...)[:len(w.buf)]
	}
	if w.keyed {
		w.buf = append(appendInt(append(w.buf, 'k'), int64(key)), '\t')
	}
	if w.qPrefix {
		if r.Query >= len(w.qTags) {
			w.growTags(r.Query)
		}
		w.put(&w.qTags[r.Query])
	}
	s, e := r.Start, r.End
	if r.Measure == stream.Time {
		s, e = w.rb.unshift(s), w.rb.unshift(e)
	}
	// Fibonacci hashing spreads starts that are multiples of a slide.
	if t := &w.starts[uint64(s)*0x9e3779b97f4a7c15>>(64-startBits)]; t.n > 0 && t.start == s {
		w.put(&t.tag)
	} else {
		i := len(w.buf)
		w.buf = appendInt(append(w.buf, '['), s)
		t.start, t.n = s, copy(t.b[:], w.buf[i:])
	}
	if e != w.end || w.endTag.n == 0 {
		w.end = e
		w.endTag.n = len(append(appendInt(append(w.endTag.b[:0], ", "...), e), ")\t n="...))
	}
	w.put(&w.endTag)
	w.buf = w.appendValue(append(appendInt(w.buf, r.N), "\t "...), r.Value)
	if r.Update {
		w.buf = append(w.buf, "  (update)"...)
		w.updates++
	}
	w.buf = append(w.buf, '\n')
	w.n++
}

//slicelint:coldpath runs once per query id, the first time a row carries it
func (w *rowBuf[Out]) growTags(id int) {
	for id >= len(w.qTags) {
		var t tag
		t.n = copy(t.b[:], append(strconv.AppendInt([]byte{'q'}, int64(len(w.qTags)), 10), '\t'))
		w.qTags = append(w.qTags, t)
	}
}

// valueAppender picks how a result value is rendered, once per run: float64
// results — every aggregate but count and m4 — are appended in the shortest
// form that round-trips, which is what fmt's %v prints for a float64; other
// result types keep fmt.
func valueAppender[Out any]() func([]byte, Out) []byte {
	var float any = appendFloat
	if f, ok := float.(func([]byte, Out) []byte); ok {
		return f
	}
	return func(b []byte, v Out) []byte { return fmt.Append(b, v) }
}

// appendFloat appends v as strconv's 'g', -1 does. That format only turns to
// an exponent at 1e6, so an integral value below it (other than -0) is its
// integer's digits, which spares the shortest-round-trip search.
func appendFloat(b []byte, v float64) []byte {
	if -1e6 < v && v < 1e6 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return appendInt(b, i)
		}
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendInt appends v in decimal, byte for byte as strconv.AppendInt(b, v, 10)
// does, but in place: the number is sized first, b grown by that many bytes,
// and the digits written into them from the right, two per step, where
// strconv writes them into a buffer of its own and copies that.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	i := len(b) + decimalLen(u)
	if i <= cap(b) {
		b = b[:i]
	} else {
		b = append(b, "00000000000000000000"[:i-len(b)]...)
	}
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
}

// digitPairs is "00" to "99", the steps appendInt writes.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10u holds 10^0 to 10^19, every power of ten a uint64 holds.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is how many digits u has (1 for 0): its bit length times
// log10(2) — 1233/4096 — estimates the number of digits less one, and one
// comparison corrects the estimate. u|1 keeps 0 at one digit and compares
// like u against every even power of ten.
func decimalLen(u uint64) int {
	t := bits.Len64(u|1) * 1233 >> 12
	if u|1 < pow10u[t] {
		return t
	}
	return t + 1
}

// rowSink is scotty's guarded egress: every result-row batch passes a
// retry/circuit-breaker guard (ops defaults: 4 attempts with capped backoff;
// 5 consecutive failures open the breaker for 100ms) before reaching the
// output writer. Permanently rejected batches are dead-lettered — counted in
// scotty_rows_dead_lettered_total and, with -dlq-dir, captured as durable
// records — so a wedged or flapping consumer degrades the run instead of
// killing or silently truncating it. Delivery is at-least-once: a batch whose
// write failed midway may reappear whole in the DLQ.
type rowSink struct {
	w      io.Writer
	stderr io.Writer
	guard  ops.Guard
	brk    *ops.Breaker
	dlq    *ops.DLQ
	dead   *obs.Counter
}

func newRowSink(env *runEnv) (*rowSink, error) {
	s := &rowSink{w: env.stdout, stderr: env.stderr, brk: ops.NewBreaker(ops.BreakerConfig{})}
	s.guard = ops.Guard{Breaker: s.brk}
	s.dead = env.reg.Counter("scotty_rows_dead_lettered_total")
	if env.ms != nil {
		env.ms.breaker.Store(s.brk.State) // /healthz reports (and gates on) the live state
	}
	if env.dlqDir != "" {
		if err := os.MkdirAll(env.dlqDir, 0o755); err != nil {
			return nil, fmt.Errorf("dlq: %w", err)
		}
		dlq, err := ops.OpenDLQ(filepath.Join(env.dlqDir, "rows.dlq"))
		if err != nil {
			return nil, fmt.Errorf("dlq: %w", err)
		}
		s.dlq = dlq
	}
	return s, nil
}

// write offers one rendered batch to the guarded writer; rejection
// dead-letters all n rows.
func (s *rowSink) write(rows []byte, n int) {
	_, err := s.guard.Do(func() error {
		_, werr := s.w.Write(rows)
		return werr
	})
	if err == nil {
		return
	}
	s.dead.Add(int64(n))
	if s.dlq != nil {
		if aerr := s.dlq.Append(ops.Record{Reason: err.Error(), Count: n, Payload: rows}); aerr != nil {
			fmt.Fprintf(s.stderr, "dlq: %v\n", aerr)
		}
	}
}

// finish prints the loss summary and releases the DLQ handle.
func (s *rowSink) finish() {
	trips, recoveries := s.brk.Counts()
	if n := s.dead.Value(); n > 0 || trips > 0 {
		fmt.Fprintf(s.stderr, "breaker: %d rows dead-lettered (trips %d, recoveries %d)\n", n, trips, recoveries)
	}
	if s.dlq != nil {
		if err := s.dlq.Close(); err != nil {
			fmt.Fprintf(s.stderr, "dlq: %v\n", err)
		}
	}
}

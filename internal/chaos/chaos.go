// Package chaos is the fault-injection harness for the engine's
// checkpoint/recovery layer (docs/ROBUSTNESS.md). It drives every windowing
// technique of the benchmark harness — plus the keyed operator — through the
// parallel engine while injecting a deterministic, seeded schedule of faults:
// panics at fixed tuple positions, torn snapshot files, and dropped or
// duplicated checkpoint barriers. A run under faults must emit exactly the
// results of an uninterrupted run; Equivalent checks that, per partition and
// byte for byte.
//
// The harness is deliberately deterministic: the same seed always yields the
// same stream, the same fault schedule, and therefore the same verdict, so a
// failure reproduces with `-run <test> -v` and nothing else.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scotty/internal/aggregate"
	"scotty/internal/baselines"
	"scotty/internal/benchutil"
	"scotty/internal/checkpoint"
	"scotty/internal/core"
	"scotty/internal/engine"
	"scotty/internal/fleet"
	"scotty/internal/obs"
	"scotty/internal/spill"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// Keyed names the per-key operator (core.Keyed) as an additional technique
// beyond benchutil.AllTechniques.
const Keyed = benchutil.Technique("keyed")

// KeyedTTL is the keyed operator with idle-key expiry: the Machine profile's
// global 1500ms gaps leave keys idle for up to ~370ms of watermark time (the
// 1001ms watermark lag swallows most of the gap), enough for several keys per
// run to be drained, deleted, and later re-materialized seeded at the current
// watermark. Recovery must reproduce the expiry drains and the re-creations
// exactly.
const KeyedTTL = benchutil.Technique("keyed-ttl")

// KeyedSpill is the keyed operator under a deliberately tiny memory budget:
// every watermark spills most keys cold and the next tuples re-hydrate them,
// so crashes land between spill bursts and re-loads. Recovery restores from
// self-contained snapshots (cold blobs are inlined) and clears the stale
// spill directory — the results must not show any of it.
const KeyedSpill = benchutil.Technique("keyed-spill")

// keyedTTL and keyedLateness configure the keyed-ttl workload. Expiry fires
// when wm - lastSeen > ttl + lateness, and the largest idle span the Machine
// stream exposes is ~370ms (post-gap watermark jumps), so the sum must stay
// under that. The lateness can shrink safely: the watermark lag (1001ms)
// exceeds the disorder's max delay, so nothing is ever dropped as late.
const (
	keyedTTL      = int64(100)
	keyedLateness = int64(100)
)

// keyedSpillBudget is the per-partition byte budget for keyed-spill: far
// below what four Machine keys occupy, forcing spill/re-hydrate churn at
// every watermark.
const keyedSpillBudget = int64(8 << 10)

// Techniques lists everything the harness can run: all benchmark techniques
// plus the keyed operator (plain, idle-expiring, and spilling) and the
// factor-window sharing layer.
func Techniques() []benchutil.Technique {
	return append(append([]benchutil.Technique{}, benchutil.AllTechniques...),
		Keyed, KeyedTTL, KeyedSpill, benchutil.FleetSlicing)
}

// ------------------------------------------------------------- schedule ----

// BarrierMode selects how checkpoint barriers are tampered with.
type BarrierMode int

const (
	// BarriersClean delivers every barrier normally.
	BarriersClean BarrierMode = iota
	// BarriersDropped withholds every other barrier from one partition, so
	// those checkpoints never complete and recovery must fall back.
	BarriersDropped
	// BarriersDuplicated delivers every barrier twice to every partition;
	// alignment must be idempotent.
	BarriersDuplicated
)

// CrashPoint kills one partition when it has processed its At-th tuple
// (counted from the stream origin, surviving restores).
type CrashPoint struct {
	Partition int
	At        int64
}

// Schedule is a deterministic fault plan.
type Schedule struct {
	Crashes  []CrashPoint
	TornEven bool // tear every even-id snapshot file on disk
	Barriers BarrierMode
}

// NewSchedule derives a schedule with three crash points from the seed,
// spread across the middle of the run so checkpoints exist both before and
// after each kill. events is the total tuple count, par the parallelism.
func NewSchedule(seed int64, par, events int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	per := events / par
	crashes := make([]CrashPoint, 3)
	for i := range crashes {
		// Points land in the i-th of three bands covering [12%, 72%] of one
		// partition's share of the stream.
		lo := per * (1 + 5*i) / 25
		crashes[i] = CrashPoint{
			Partition: rng.Intn(par),
			At:        int64(lo + rng.Intn(per/5+1)),
		}
	}
	return Schedule{Crashes: crashes}
}

// crashState tracks which crash points have fired. Points fire exactly once
// across all restart attempts — recovery replays the stream, and a fault that
// re-fires forever would make every run diverge.
type crashState struct {
	points   []CrashPoint
	fired    []atomic.Bool
	Restores atomic.Int64 // successful snapshot restores across the run
}

func newCrashState(points []CrashPoint) *crashState {
	return &crashState{points: points, fired: make([]atomic.Bool, len(points))}
}

func (c *crashState) shouldPanic(part int, seen int64) bool {
	for i, pt := range c.points {
		if pt.Partition == part && pt.At == seen && c.fired[i].CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}

// ------------------------------------------------------------------ log ----

// Log collects the externally visible results of a run, one sequence per
// partition. Within a partition emission order is deterministic; across
// partitions it is not, which is why the log never interleaves them.
type Log struct {
	mu    sync.Mutex
	lines [][]string
}

// NewLog creates a log for par partitions.
func NewLog(par int) *Log { return &Log{lines: make([][]string, par)} }

func (l *Log) append(part int, line string) {
	l.mu.Lock()
	l.lines[part] = append(l.lines[part], line)
	l.mu.Unlock()
}

// Partition returns one partition's result lines in emission order.
func (l *Log) Partition(p int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines[p]...)
}

// Partitions returns the number of partitions the log covers.
func (l *Log) Partitions() int { return len(l.lines) }

// ------------------------------------------------------------ operators ----

// operator adapts one windowing technique: feed an item, get the formatted
// result lines it emitted.
type operator interface {
	feed(it stream.Item[stream.Tuple]) []string
}

// snapOperator additionally exposes the technique's snapshot support.
type snapOperator interface {
	operator
	snapshot() ([]byte, error)
	restore(data []byte) error
}

func formatResult(q int, start, end int64, value float64, n int64, update bool) string {
	return fmt.Sprintf("q%d [%d,%d) n=%d v=%.9g u=%t", q, start, end, n, value, update)
}

// sliceOp wraps the slicing core (any store kind); it is snapshottable.
type sliceOp struct {
	ag *core.Aggregator[stream.Tuple, float64, float64]
}

func (o *sliceOp) feed(it stream.Item[stream.Tuple]) []string {
	var rs []core.Result[float64]
	if it.Kind == stream.KindEvent {
		rs = o.ag.ProcessElement(it.Event)
	} else {
		rs = o.ag.ProcessWatermark(it.Watermark)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = formatResult(r.Query, r.Start, r.End, r.Value, r.N, r.Update)
	}
	return lines
}

func (o *sliceOp) snapshot() ([]byte, error) { return o.ag.Snapshot() }
func (o *sliceOp) restore(data []byte) error { return o.ag.Restore(data) }

// keyedOp wraps the per-key operator; it is snapshottable.
type keyedOp struct {
	op *core.Keyed[int32, stream.Tuple, float64, float64]
}

func (o *keyedOp) feed(it stream.Item[stream.Tuple]) []string {
	var rs []core.KeyedResult[int32, float64]
	if it.Kind == stream.KindEvent {
		rs = o.op.ProcessElement(it.Event)
	} else {
		rs = o.op.ProcessWatermark(it.Watermark)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = fmt.Sprintf("k%d %s", r.Key, formatResult(r.Query, r.Start, r.End, r.Value, r.N, r.Update))
	}
	return lines
}

func (o *keyedOp) snapshot() ([]byte, error) { return o.op.Snapshot() }
func (o *keyedOp) restore(data []byte) error { return o.op.Restore(data) }

// fleetOp wraps the factor-window sharing layer; it is snapshottable, and its
// workload is built to actually factor (correlated sliding queries plus an
// exact duplicate), so recovery must reconstruct pane rings, factored trigger
// cursors, and the logical fan-out — not just core slices.
type fleetOp struct {
	fl *fleet.Fleet[stream.Tuple, float64, float64]
}

func (o *fleetOp) feed(it stream.Item[stream.Tuple]) []string {
	var rs []core.Result[float64]
	if it.Kind == stream.KindEvent {
		rs = o.fl.ProcessElement(it.Event)
	} else {
		rs = o.fl.ProcessWatermark(it.Watermark)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = formatResult(r.Query, r.Start, r.End, r.Value, r.N, r.Update)
	}
	return lines
}

func (o *fleetOp) snapshot() ([]byte, error) { return o.fl.Snapshot() }
func (o *fleetOp) restore(data []byte) error { return o.fl.Restore(data) }

// baseOp wraps a baseline technique; baselines carry no snapshot support, so
// the engine recovers them by replaying from the stream origin.
type baseOp struct {
	op baselines.Operator[stream.Tuple, float64]
}

func (o *baseOp) feed(it stream.Item[stream.Tuple]) []string {
	var rs []baselines.Result[float64]
	if it.Kind == stream.KindEvent {
		rs = o.op.ProcessElement(it.Event)
	} else {
		rs = o.op.ProcessWatermark(it.Watermark)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = formatResult(r.Query, r.Start, r.End, r.Value, r.N, r.Update)
	}
	return lines
}

// buildOperator constructs the operator for one technique over the shared
// workload: sum aggregation, five tumbling queries, 4s lateness for the
// techniques that tolerate disorder. spillDir and reg are used only by
// KeyedSpill (the partition's blob directory and the run-wide metrics
// registry its counters aggregate into).
func buildOperator(t benchutil.Technique, spillDir string, reg *obs.Registry) (operator, error) {
	f := aggregate.Sum(stream.Val)
	defs := benchutil.TumblingQueries(5)
	ordered := t.InOrderOnly()
	lateness := int64(4000)
	if ordered {
		lateness = 0
	}
	if t == KeyedTTL {
		// The watermark lag (1001ms) already exceeds the disorder's max
		// delay, so shrinking the lateness drops nothing — it only lets
		// idle expiry observe the post-gap watermark jump.
		lateness = keyedLateness
	}
	newAg := func(kind core.StoreKind) *core.Aggregator[stream.Tuple, float64, float64] {
		ag := core.New(f, core.Options{Ordered: ordered, Lateness: lateness, Store: kind})
		// Fresh definitions on every call: window definitions carry
		// trigger-cursor state, so per-key operators sharing one defs
		// slice would hand each window's single trigger to whichever key
		// processes it first, silently starving every other key (see
		// core.NewKeyed). The single-operator techniques below call this
		// once, so they are unaffected either way.
		for _, d := range benchutil.TumblingQueries(5) {
			ag.MustAddQuery(d)
		}
		return ag
	}
	switch t {
	case benchutil.LazySlicing:
		return &sliceOp{ag: newAg(core.StoreLazy)}, nil
	case benchutil.EagerSlicing:
		return &sliceOp{ag: newAg(core.StoreEager)}, nil
	case benchutil.DABASlicing:
		return &sliceOp{ag: newAg(core.StoreDABA)}, nil
	case benchutil.FleetSlicing:
		fl := fleet.New(f, fleet.Options{Options: core.Options{Lateness: lateness}})
		for _, d := range []window.Definition{
			window.Sliding(stream.Time, 4000, 250),
			window.Sliding(stream.Time, 8000, 250),
			window.Sliding(stream.Time, 2000, 250),
			window.Sliding(stream.Time, 4000, 250), // exact duplicate → fan-out
			window.Tumbling(stream.Time, 1000),
		} {
			fl.MustAddQuery(d)
		}
		if fl.Plan().Factored == 0 {
			return nil, fmt.Errorf("chaos: fleet workload was meant to factor")
		}
		return &fleetOp{fl: fl}, nil
	case Keyed, KeyedTTL, KeyedSpill:
		var ttl int64
		if t == KeyedTTL {
			ttl = keyedTTL
		}
		k := core.NewKeyed(
			func(v stream.Tuple) int32 { return v.Key }, ttl,
			func() *core.Aggregator[stream.Tuple, float64, float64] { return newAg(core.StoreLazy) },
		)
		if t == KeyedSpill {
			if spillDir == "" {
				return nil, fmt.Errorf("chaos: keyed-spill needs a spill directory")
			}
			st, err := spill.Open(spillDir)
			if err != nil {
				return nil, err
			}
			if err := k.EnableSpill(core.SpillConfig{Budget: keyedSpillBudget, Store: st, Metrics: reg}); err != nil {
				return nil, err
			}
		}
		return &keyedOp{op: k}, nil
	case benchutil.Pairs:
		return feedQueries(baselines.NewPairs(f), defs), nil
	case benchutil.Cutty:
		return feedQueries(baselines.NewCutty(f), defs), nil
	case benchutil.Buckets:
		return feedQueries(baselines.NewBuckets(f, false, ordered, lateness), defs), nil
	case benchutil.TupleBuckets:
		return feedQueries(baselines.NewBuckets(f, true, ordered, lateness), defs), nil
	case benchutil.TupleBuffer:
		return feedQueries(baselines.NewTupleBuffer(f, ordered, lateness), defs), nil
	case benchutil.AggTree:
		return feedQueries(baselines.NewAggTree(f, ordered, lateness), defs), nil
	default:
		return nil, fmt.Errorf("chaos: unknown technique %q", t)
	}
}

func feedQueries(op baselines.Operator[stream.Tuple, float64], defs []window.Definition) *baseOp {
	for _, d := range defs {
		op.AddQuery(d)
	}
	return &baseOp{op: op}
}

// ------------------------------------------------------------ processor ----

// proc is the engine processor: it injects crashes between operator calls
// (so every operator invocation is atomic with respect to failures), feeds
// the operator, and publishes results to the shared log — the "external
// sink" whose contents the equivalence check compares.
type proc struct {
	part  int
	op    operator
	log   *Log
	crash *crashState
	seen  int64 // tuples processed since the stream origin
	trim  int64 // replayed results still to suppress (ReplayTrimmer)
}

func (p *proc) ProcessItem(it stream.Item[stream.Tuple]) int {
	if it.Kind == stream.KindEvent {
		if p.crash.shouldPanic(p.part, p.seen) {
			panic(fmt.Sprintf("chaos: injected crash at tuple %d of partition %d", p.seen, p.part))
		}
		p.seen++
	}
	lines := p.op.feed(it)
	for _, ln := range lines {
		if p.trim > 0 {
			p.trim--
			continue
		}
		p.log.append(p.part, ln)
	}
	return len(lines)
}

func (p *proc) TrimReplay(n int64) { p.trim = n }

// snapProc adds engine.Snapshottable on top of proc for techniques that
// support state snapshots. The snapshot covers the operator state plus the
// processor's own tuple counter, so crash points keep their positions across
// restores.
type snapProc struct {
	proc
	snap snapOperator
}

func (p *snapProc) Snapshot() ([]byte, error) {
	state, err := p.snap.snapshot()
	if err != nil {
		return nil, err
	}
	enc := checkpoint.NewEncoder()
	enc.Bytes(state)
	enc.Int64(p.seen)
	return enc.Seal(), nil
}

func (p *snapProc) Restore(data []byte) error {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	state := dec.Bytes()
	seen := dec.Int64()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := p.snap.restore(state); err != nil {
		return err
	}
	p.seen = seen
	p.crash.Restores.Add(1)
	return nil
}

// ---------------------------------------------------------------- runner ---

// Options configures one harness run.
type Options struct {
	Technique benchutil.Technique
	Events    int
	Par       int
	Seed      int64
	// Sched, when non-nil, enables checkpointing (2s barrier interval into
	// Dir) and applies the fault plan. Nil runs clean and unsupervised —
	// the reference execution.
	Sched *Schedule
	Dir   string
}

// RunResult is the observable outcome of a harness run.
type RunResult struct {
	Stats    engine.Stats
	Log      *Log
	Restores int64
	// SpillStores and SpillLoads aggregate the keyed-spill technique's
	// blob writes and re-hydrations across partitions and restarts (zero
	// for every other technique). Their exact values are nondeterministic
	// across fault plans — they witness that spilling happened, nothing
	// more.
	SpillStores int64
	SpillLoads  int64
}

// Run executes one technique under the options and returns what an external
// observer saw: the per-partition result log and the engine stats.
func Run(o Options) (RunResult, error) {
	var (
		spillRoot string
		spillReg  *obs.Registry
	)
	if o.Technique == KeyedSpill {
		dir, err := os.MkdirTemp("", "chaos-spill-")
		if err != nil {
			return RunResult{}, err
		}
		spillRoot = dir // handed to the engine below, which removes it
		spillReg = obs.NewRegistry()
	}
	// Validate the technique once up front (partition index o.Par is a
	// scratch spill directory no real partition uses).
	if _, err := buildOperator(o.Technique, partitionSpillDir(spillRoot, o.Par), spillReg); err != nil {
		return RunResult{}, err
	}
	d := stream.Disorder{Fraction: 0.1, MaxDelay: 1000, Seed: o.Seed}
	if o.Technique.InOrderOnly() {
		d = stream.Disorder{}
	}
	in := benchutil.MakeInput(stream.Machine(), o.Events, d, o.Seed)

	log := NewLog(o.Par)
	var points []CrashPoint
	if o.Sched != nil {
		points = o.Sched.Crashes
	}
	crash := newCrashState(points)

	cfg := engine.Config[stream.Tuple]{
		Parallelism: o.Par,
		SpillDir:    spillRoot,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) engine.Processor[stream.Tuple] {
			//lint:ignore errflow the technique was validated by buildOperator before the run started; rebuilding it for a partition cannot fail differently
			op, _ := buildOperator(o.Technique, partitionSpillDir(spillRoot, p), spillReg) // validated above
			base := proc{part: p, op: op, log: log, crash: crash}
			if so, ok := op.(snapOperator); ok {
				return &snapProc{proc: base, snap: so}
			}
			return &base
		},
	}
	if o.Sched != nil {
		cfg.Checkpoint = engine.CheckpointConfig{
			Interval:    2000,
			Dir:         o.Dir,
			MaxRestarts: len(o.Sched.Crashes) + 1,
			Sleep:       func(time.Duration) {},
		}
		if o.Sched.TornEven {
			cfg.Checkpoint.WriteFile = tearEvenSnapshots
		}
		switch o.Sched.Barriers {
		case BarriersDropped:
			cfg.Checkpoint.BarrierFault = func(id, partition int) engine.BarrierAction {
				if id%2 == 0 && partition == 0 {
					return engine.BarrierDrop
				}
				return engine.BarrierDeliver
			}
		case BarriersDuplicated:
			cfg.Checkpoint.BarrierFault = func(id, partition int) engine.BarrierAction {
				return engine.BarrierDuplicate
			}
		}
	}
	stats, err := engine.Run(cfg, in.Items)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Stats: stats, Log: log, Restores: crash.Restores.Load()}
	if spillReg != nil {
		res.SpillStores = spillReg.Counter("core_spill_stores_total").Value()
		res.SpillLoads = spillReg.Counter("core_spill_loads_total").Value()
	}
	return res, nil
}

// partitionSpillDir is engine.PartitionSpillDir gated on spilling being
// enabled for the run at all.
func partitionSpillDir(root string, p int) string {
	if root == "" {
		return ""
	}
	return engine.PartitionSpillDir(root, p)
}

// tearEvenSnapshots writes every even-id snapshot file truncated by a few
// bytes while reporting success — the write "succeeds" but the file fails
// validation on recovery, forcing the fallback to an older checkpoint.
func tearEvenSnapshots(path string, data []byte) error {
	var id, part int
	name := path[strings.LastIndex(path, "ckpt-"):]
	//lint:ignore errflow Sscanf's error only means the path is not a checkpoint file; n == 2 decides whether to tear
	if n, _ := fmt.Sscanf(name, "ckpt-%d-p%d.sck", &id, &part); n == 2 && id%2 == 0 && len(data) > 8 {
		data = data[: len(data)-5 : len(data)-5]
	}
	// The engine's own default writer: the tear is in the payload, not in
	// the write.
	return checkpoint.WriteFileAtomic(path, data)
}

// Equivalent reports whether two runs emitted identical results: the same
// event and result counts and, per partition, byte-identical result lines in
// identical order. It returns nil when equivalent and a description of the
// first divergence otherwise.
func Equivalent(clean, got RunResult) error {
	if clean.Stats.Events != got.Stats.Events {
		return fmt.Errorf("events: %d, clean %d", got.Stats.Events, clean.Stats.Events)
	}
	if clean.Stats.Results != got.Stats.Results {
		return fmt.Errorf("results: %d, clean %d", got.Stats.Results, clean.Stats.Results)
	}
	if clean.Log.Partitions() != got.Log.Partitions() {
		return fmt.Errorf("partitions: %d, clean %d", got.Log.Partitions(), clean.Log.Partitions())
	}
	for p := 0; p < clean.Log.Partitions(); p++ {
		a, b := clean.Log.Partition(p), got.Log.Partition(p)
		if len(a) != len(b) {
			return fmt.Errorf("partition %d: %d results, clean %d", p, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("partition %d result %d: %q, clean %q", p, i, b[i], a[i])
			}
		}
	}
	return nil
}

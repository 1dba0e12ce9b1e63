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
	"scotty/internal/benchutil"
	"scotty/internal/checkpoint"
	"scotty/internal/engine"
	"scotty/internal/fleet"
	"scotty/internal/reference"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// keyedTTL and keyedLateness configure keyed-ttl. Expiry fires when
// wm - lastSeen > ttl + lateness, and the largest idle span the Machine
// stream exposes is ~370ms (post-gap watermark jumps), so the sum must stay
// under that: enough for several keys per run to be drained, deleted, and
// later re-materialized seeded at the current watermark. The lateness can
// shrink safely: the watermark lag (1001ms) exceeds the disorder's max delay,
// so nothing is ever dropped as late.
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
		benchutil.Keyed, benchutil.KeyedTTL, benchutil.KeyedSpill, benchutil.FleetSlicing)
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
	mu   sync.Mutex
	rows [][]reference.Row
}

// NewLog creates a log for par partitions.
func NewLog(par int) *Log { return &Log{rows: make([][]reference.Row, par)} }

func (l *Log) append(part int, r reference.Row) {
	l.mu.Lock()
	l.rows[part] = append(l.rows[part], r)
	l.mu.Unlock()
}

// Partition returns one partition's result rows in emission order.
func (l *Log) Partition(p int) []reference.Row {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]reference.Row(nil), l.rows[p]...)
}

// Partitions returns the number of partitions the log covers.
func (l *Log) Partitions() int { return len(l.rows) }

// ------------------------------------------------------------ operators ----

// sum is every chaos workload's aggregation.
var sum = aggregate.Sum(stream.Val)

// workload is the shared workload per technique: sum over five tumbling
// queries, 4 s lateness where the technique tolerates disorder. The fleet
// gets correlated sliding queries plus an exact duplicate, so recovery must
// reconstruct pane rings, factored trigger cursors and the logical fan-out,
// not just core slices. spillDir, the partition's blob directory, is used
// only by keyed-spill.
func workload(t benchutil.Technique, spillDir string) benchutil.Workload {
	w := benchutil.Workload{
		Ordered:  t.InOrderOnly(),
		Lateness: 4000,
		// Fresh definitions on every call: window definitions carry
		// trigger-cursor state, so per-key operators sharing one defs slice
		// would hand each window's single trigger to whichever key
		// processes it first (see core.NewKeyed).
		Defs:        func() []window.Definition { return benchutil.TumblingQueries(5) },
		IdleTTL:     keyedTTL,
		SpillBudget: keyedSpillBudget,
		SpillDir:    spillDir,
	}
	switch {
	case w.Ordered:
		w.Lateness = 0
	case t == benchutil.KeyedTTL:
		// The watermark lag (1001ms) already exceeds the disorder's max
		// delay, so shrinking the lateness drops nothing — it only lets
		// idle expiry observe the post-gap watermark jump.
		w.Lateness = keyedLateness
	case t == benchutil.FleetSlicing:
		w.Defs = func() []window.Definition {
			return []window.Definition{
				window.Sliding(stream.Time, 4000, 250),
				window.Sliding(stream.Time, 8000, 250),
				window.Sliding(stream.Time, 2000, 250),
				window.Sliding(stream.Time, 4000, 250), // exact duplicate → fan-out
				window.Tumbling(stream.Time, 1000),
			}
		}
	}
	return w
}

// newOperator builds the technique's operator for one partition through the
// benchutil factory.
func newOperator(t benchutil.Technique, spillDir string) (*benchutil.Rows, error) {
	op, err := benchutil.NewRows(t, sum, workload(t, spillDir))
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if fl, ok := op.Op.(*fleet.Fleet[stream.Tuple, float64, float64]); ok && fl.Plan().Factored == 0 {
		return nil, fmt.Errorf("chaos: fleet workload was meant to factor")
	}
	return op, nil
}

// ------------------------------------------------------------ processor ----

// proc is the engine processor: it injects crashes between operator calls
// (so every operator invocation is atomic with respect to failures), feeds
// the operator, and publishes results to the shared log — the "external
// sink" whose contents the equivalence check compares.
type proc struct {
	part  int
	op    *benchutil.Rows
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
	rows := p.op.Element(it)
	for _, r := range rows {
		if p.trim > 0 {
			p.trim--
			continue
		}
		p.log.append(p.part, r)
	}
	return len(rows)
}

func (p *proc) TrimReplay(n int64) { p.trim = n }

// snapProc adds engine.Snapshottable on top of proc for techniques that
// support state snapshots. The snapshot covers the operator state plus the
// processor's own tuple counter, so crash points keep their positions across
// restores.
type snapProc struct {
	proc
}

func (p *snapProc) Snapshot() ([]byte, error) {
	state, err := p.op.Snapshot()
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
	if err := p.op.Restore(state); err != nil {
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
}

// Run executes one technique under the options and returns what an external
// observer saw: the per-partition result log and the engine stats.
func Run(o Options) (RunResult, error) {
	var spillRoot string
	if o.Technique == benchutil.KeyedSpill {
		dir, err := os.MkdirTemp("", "chaos-spill-")
		if err != nil {
			return RunResult{}, err
		}
		spillRoot = dir // handed to the engine below, which removes it
	}
	// Validate the technique once up front (partition index o.Par is a
	// scratch spill directory no real partition uses).
	if _, err := newOperator(o.Technique, partitionSpillDir(spillRoot, o.Par)); err != nil {
		return RunResult{}, err
	}
	in := input(o.Technique, o.Events, o.Seed)

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
			//lint:ignore errflow the technique was validated by newOperator before the run started; rebuilding it for a partition cannot fail differently
			op, _ := newOperator(o.Technique, partitionSpillDir(spillRoot, p)) // validated above
			base := proc{part: p, op: op, log: log, crash: crash}
			if op.Snapshot != nil {
				return &snapProc{proc: base}
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
	return RunResult{Stats: stats, Log: log, Restores: crash.Restores.Load()}, nil
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

// input is the stream every run of a technique sees: the Machine profile,
// 10% of it delayed by up to 1 s unless the technique takes in-order input
// only.
func input(t benchutil.Technique, events int, seed int64) benchutil.Input {
	d := stream.Disorder{Fraction: 0.1, MaxDelay: 1000, Seed: seed}
	if t.InOrderOnly() {
		d = stream.Disorder{}
	}
	return benchutil.MakeInput(stream.Machine(), events, d, seed)
}

// Equivalent reports whether two runs emitted identical results: the same
// event and result counts and, per partition, identical rows in identical
// order (reference.Diff). It returns nil when equivalent and a description
// of the first divergence otherwise.
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
		if d := reference.Diff(clean.Log.Partition(p), got.Log.Partition(p), nil); d != "" {
			return fmt.Errorf("partition %d: %s", p, d)
		}
	}
	return nil
}

// CheckOracle holds a clean run of o against internal/reference: each
// partition's rows (reference.Check) against the oracle's windows over the
// events the engine routed to it — per key for the keyed techniques. It does
// not apply to keyed-ttl, whose contract is that expiry ends a key's stream:
// its TTL sits far below the window lengths on purpose, so an expired key's
// windows are drained early and a returning key's windows announced again.
func CheckOracle(o Options, res RunResult) error {
	if o.Technique == benchutil.KeyedTTL {
		return nil
	}
	parts := make([][]stream.Event[stream.Tuple], o.Par)
	for _, it := range input(o.Technique, o.Events, o.Seed).Items {
		if it.Kind == stream.KindEvent {
			p := int(uint64(it.Event.Value.Key) % uint64(o.Par))
			parts[p] = append(parts[p], it.Event)
		}
	}
	var keyOf func(stream.Tuple) int64
	switch o.Technique {
	case benchutil.Keyed, benchutil.KeyedSpill:
		keyOf = func(v stream.Tuple) int64 { return int64(v.Key) }
	}
	defs := workload(o.Technique, "").Defs()
	for p, events := range parts {
		want := reference.Want{Final: stream.MaxTime}
		for id, d := range defs {
			length, slide := d.(interface{ Params() (int64, int64) }).Params()
			q := reference.Query[stream.Tuple]{Kind: reference.Periodic, Measure: d.Measure(), Length: length, Slide: slide}
			want.Rows = append(want.Rows, reference.Windows(sum, q, id, keyOf, events, stream.MaxTime)...)
		}
		if v := reference.Check(res.Log.Partition(p), want); v.Failed() > 0 {
			return fmt.Errorf("partition %d: %v", p, v)
		}
	}
	return nil
}

package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scotty/internal/checkpoint"
	"scotty/internal/obs"
	"scotty/internal/stream"
)

// resultLog is an external side-effect sink shared across processor rebuilds,
// the way a downstream system would be: replayed emissions reach it again
// unless TrimReplay suppresses them.
type resultLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *resultLog) append(s string) {
	l.mu.Lock()
	l.lines = append(l.lines, s)
	l.mu.Unlock()
}

func (l *resultLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// crashPlan arms one panic per partition at an absolute event count; firing
// state lives outside the processor so rebuilt processors do not re-panic.
type crashPlan struct {
	at       map[int]int64 // partition -> event count (since origin) to panic at
	fired    []atomic.Bool
	restores atomic.Int64 // successful sumProc.Restore calls (checkpoint, not origin)
}

func newCrashPlan(par int, at map[int]int64) *crashPlan {
	return &crashPlan{at: at, fired: make([]atomic.Bool, par)}
}

func (c *crashPlan) shouldPanic(p int, seen int64) bool {
	want, ok := c.at[p]
	return ok && seen == want && c.fired[p].CompareAndSwap(false, true)
}

// sumProc is a Snapshottable test processor: it sums routed event values,
// emits one result per watermark into an external log, and panics according
// to the crash plan.
type sumProc struct {
	part  int
	sum   float64
	seen  int64 // events processed since the stream origin
	trim  int64
	log   *resultLog
	crash *crashPlan
}

func (s *sumProc) ProcessItem(it stream.Item[stream.Tuple]) int {
	if it.Kind == stream.KindEvent {
		s.seen++
		if s.crash != nil && s.crash.shouldPanic(s.part, s.seen) {
			panic(fmt.Sprintf("injected crash at event %d", s.seen))
		}
		s.sum += it.Event.Value.V
		return 0
	}
	if s.trim > 0 {
		s.trim--
	} else {
		s.log.append(fmt.Sprintf("p%d wm=%d sum=%.0f", s.part, it.Watermark, s.sum))
	}
	return 1
}

func (s *sumProc) Snapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	enc.Float64(s.sum)
	enc.Int64(s.seen)
	return enc.Seal(), nil
}

func (s *sumProc) Restore(data []byte) error {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	s.sum = dec.Float64()
	s.seen = dec.Int64()
	if err := dec.Err(); err != nil {
		return err
	}
	if s.crash != nil {
		s.crash.restores.Add(1)
	}
	return nil
}

func (s *sumProc) TrimReplay(n int64) { s.trim = n }

// sameResults compares two runs' external logs per partition: within a
// partition emission order is deterministic, across partitions it is not, so
// equality means identical per-partition sequences.
func sameResults(t *testing.T, label string, par int, clean, got []string) {
	t.Helper()
	if len(clean) != len(got) {
		t.Fatalf("%s: %d logged results, clean %d", label, len(got), len(clean))
	}
	for p := 0; p < par; p++ {
		prefix := fmt.Sprintf("p%d ", p)
		var a, b []string
		for _, s := range clean {
			if strings.HasPrefix(s, prefix) {
				a = append(a, s)
			}
		}
		for _, s := range got {
			if strings.HasPrefix(s, prefix) {
				b = append(b, s)
			}
		}
		if len(a) != len(b) {
			t.Fatalf("%s: partition %d logged %d results, clean %d", label, p, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: partition %d result %d = %q, clean %q", label, p, i, b[i], a[i])
			}
		}
	}
}

// recoveryConfig builds a checkpointing config over sumProc partitions with
// instant backoff.
func recoveryConfig(dir string, par int, log *resultLog, crash *crashPlan) Config[stream.Tuple] {
	return Config[stream.Tuple]{
		Parallelism: par,
		Key:         func(e stream.Event[stream.Tuple]) uint64 { return uint64(e.Value.Key) },
		NewProcessor: func(p int) Processor[stream.Tuple] {
			return &sumProc{part: p, log: log, crash: crash}
		},
		Checkpoint: CheckpointConfig{
			Interval: 1000,
			Dir:      dir,
			Sleep:    func(time.Duration) {},
		},
	}
}

func TestPanicBecomesPartitionError(t *testing.T) {
	log := &resultLog{}
	crash := newCrashPlan(2, map[int]int64{1: 500})
	cfg := recoveryConfig("", 2, log, crash)
	cfg.Checkpoint = CheckpointConfig{} // no checkpointing: single attempt
	_, err := Run(cfg, makeItems(5_000, 8))
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RunError", err)
	}
	if re.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 without checkpointing", re.Attempts)
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("RunError does not wrap a PartitionError: %v", err)
	}
	if pe.Partition != 1 {
		t.Fatalf("failed partition = %d, want 1", pe.Partition)
	}
	if !strings.Contains(fmt.Sprint(pe.Cause), "injected crash") || len(pe.Stack) == 0 {
		t.Fatalf("PartitionError lost the panic context: %+v", pe)
	}
}

// TestRecoveryMatchesUninterruptedRun is the core recovery property: a run
// killed mid-stream and restored from its last checkpoint produces the same
// Stats and the identical external result log as an uninterrupted run.
func TestRecoveryMatchesUninterruptedRun(t *testing.T) {
	items := makeItems(20_000, 8)
	const par = 2

	cleanLog := &resultLog{}
	clean := mustRun(t, recoveryConfig(t.TempDir(), par, cleanLog, nil), items)

	for _, crashAt := range []int64{700, 4_321, 9_999} {
		crashLog := &resultLog{}
		crash := newCrashPlan(par, map[int]int64{0: crashAt})
		var failures int
		cfg := recoveryConfig(t.TempDir(), par, crashLog, crash)
		cfg.Checkpoint.OnFailure = func(err *PartitionError) { failures++ }
		got := mustRun(t, cfg, items)

		if failures != 1 || got.Recoveries != 1 {
			t.Fatalf("crashAt=%d: failures=%d recoveries=%d, want 1/1", crashAt, failures, got.Recoveries)
		}
		if got.Events != clean.Events || got.Results != clean.Results {
			t.Fatalf("crashAt=%d: stats %+v, clean %+v", crashAt, got, clean)
		}
		sameResults(t, fmt.Sprintf("crashAt=%d", crashAt), par, cleanLog.snapshot(), crashLog.snapshot())
	}
}

// TestRestartBudgetExhausted: a processor that dies on every attempt drains
// the restart budget and surfaces a structured RunError; backoff doubles per
// attempt through the injected sleeper.
func TestRestartBudgetExhausted(t *testing.T) {
	log := &resultLog{}
	crash := &crashPlan{at: map[int]int64{0: 300}, fired: make([]atomic.Bool, 1)}
	var delays []time.Duration
	cfg := recoveryConfig(t.TempDir(), 1, log, crash)
	cfg.Checkpoint.MaxRestarts = 2
	cfg.Checkpoint.Backoff = time.Millisecond
	cfg.Checkpoint.Sleep = func(d time.Duration) {
		delays = append(delays, d)
		crash.fired[0].Store(false) // re-arm: every attempt dies at the same event
	}
	_, err := Run(cfg, makeItems(2_000, 4))
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RunError", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (initial + 2 restarts)", re.Attempts)
	}
	if len(delays) != 2 || delays[0] != time.Millisecond || delays[1] != 2*time.Millisecond {
		t.Fatalf("backoff delays = %v, want [1ms 2ms]", delays)
	}
}

// TestTornSnapshotFallsBackToOlderCheckpoint: the newest checkpoint is torn
// on disk (the write pretends success), so recovery must skip it and restore
// the predecessor — and still converge to the uninterrupted result.
func TestTornSnapshotFallsBackToOlderCheckpoint(t *testing.T) {
	items := makeItems(20_000, 8)

	cleanLog := &resultLog{}
	clean := mustRun(t, recoveryConfig(t.TempDir(), 1, cleanLog, nil), items)

	dir := t.TempDir()
	crashLog := &resultLog{}
	crash := newCrashPlan(1, map[int]int64{0: 15_000})
	cfg := recoveryConfig(dir, 1, crashLog, crash)
	var lastCkpt atomic.Int64 // highest barrier id written before the crash
	cfg.Checkpoint.WriteFile = func(path string, data []byte) error {
		var id, part int
		fmt.Sscanf(path[strings.LastIndex(path, "ckpt-"):], "ckpt-%d-p%d.sck", &id, &part)
		if int64(id) > lastCkpt.Load() {
			lastCkpt.Store(int64(id))
		}
		// Every even pre-crash checkpoint is torn on disk (the write still
		// reports success). GC keeps the last two completed checkpoints —
		// one even, one odd — so recovery must skip the newest (torn, even)
		// and restore its odd predecessor.
		if id%2 == 0 && !crash.fired[0].Load() {
			return checkpoint.WriteFileAtomic(path, data[:len(data)-5])
		}
		return checkpoint.WriteFileAtomic(path, data)
	}
	got := mustRun(t, cfg, items)
	if lastCkpt.Load() < 2 {
		t.Fatalf("test needs >=2 checkpoints before the crash, got %d", lastCkpt.Load())
	}
	if crash.restores.Load() != 1 {
		t.Fatalf("restores = %d, want 1 (fallback to an older checkpoint, not origin replay)", crash.restores.Load())
	}
	if got.Recoveries != 1 || got.Events != clean.Events || got.Results != clean.Results {
		t.Fatalf("stats %+v, clean %+v", got, clean)
	}
	sameResults(t, "torn", 1, cleanLog.snapshot(), crashLog.snapshot())
}

// TestBarrierFaultsStayConsistent: dropped barriers leave a checkpoint
// incomplete (recovery falls back past it), duplicated barriers must be
// idempotent; either way the recovered run matches the clean one.
func TestBarrierFaultsStayConsistent(t *testing.T) {
	items := makeItems(20_000, 8)
	const par = 2

	cleanLog := &resultLog{}
	clean := mustRun(t, recoveryConfig(t.TempDir(), par, cleanLog, nil), items)

	for name, fault := range map[string]func(id, p int) BarrierAction{
		"drop-every-other": func(id, p int) BarrierAction {
			if id%2 == 0 && p == 1 {
				return BarrierDrop
			}
			return BarrierDeliver
		},
		"duplicate-all": func(id, p int) BarrierAction { return BarrierDuplicate },
	} {
		crashLog := &resultLog{}
		crash := newCrashPlan(par, map[int]int64{1: 7_000})
		cfg := recoveryConfig(t.TempDir(), par, crashLog, crash)
		cfg.Checkpoint.BarrierFault = fault
		got := mustRun(t, cfg, items)
		if got.Recoveries != 1 || got.Events != clean.Events || got.Results != clean.Results {
			t.Fatalf("%s: stats %+v, clean %+v", name, got, clean)
		}
		sameResults(t, name, par, cleanLog.snapshot(), crashLog.snapshot())
	}
}

// nonSnapProc is sumProc without a usable Snapshot: the shadowing method has
// an incompatible signature, so the type does not satisfy Snapshottable and
// recovery must replay it from the stream origin with full side-effect
// suppression.
type nonSnapProc struct{ sumProc }

func (s *nonSnapProc) Snapshot() {}

func TestNonSnapshottableReplaysFromOrigin(t *testing.T) {
	items := makeItems(10_000, 4)
	mk := func(log *resultLog, crash *crashPlan) Config[stream.Tuple] {
		cfg := recoveryConfig(t.TempDir(), 1, log, crash)
		base := cfg.NewProcessor
		cfg.NewProcessor = func(p int) Processor[stream.Tuple] {
			return &nonSnapProc{sumProc: *base(p).(*sumProc)}
		}
		return cfg
	}
	cleanLog := &resultLog{}
	clean := mustRun(t, mk(cleanLog, nil), items)

	crashLog := &resultLog{}
	got := mustRun(t, mk(crashLog, newCrashPlan(1, map[int]int64{0: 6_500})), items)
	if got.Recoveries != 1 || got.Results != clean.Results {
		t.Fatalf("stats %+v, clean %+v", got, clean)
	}
	sameResults(t, "origin-replay", 1, cleanLog.snapshot(), crashLog.snapshot())
}

func TestRunConfigErrors(t *testing.T) {
	if _, err := Run(Config[stream.Tuple]{}, nil); err == nil {
		t.Fatal("nil NewProcessor must be rejected")
	}
	cfg := Config[stream.Tuple]{
		NewProcessor: func(p int) Processor[stream.Tuple] {
			return ProcessorFunc[stream.Tuple](func(stream.Item[stream.Tuple]) int { return 0 })
		},
		Checkpoint: CheckpointConfig{Interval: 1000},
	}
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("Checkpoint.Interval without Dir must be rejected")
	}
}

// TestRecoveryMetricsExposed pins the observability contract of recovery: a
// crashed-and-recovered run must surface its restart on
// engine_recoveries_total and its snapshot writes on checkpoint_bytes /
// checkpoint_duration_ms in the run's registry.
func TestRecoveryMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	log := &resultLog{}
	crash := newCrashPlan(2, map[int]int64{0: 4_000})
	cfg := recoveryConfig(t.TempDir(), 2, log, crash)
	cfg.Metrics = reg
	got := mustRun(t, cfg, makeItems(20_000, 8))
	if got.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", got.Recoveries)
	}
	if v := reg.Counter("engine_recoveries_total").Value(); v != 1 {
		t.Fatalf("engine_recoveries_total = %d, want 1", v)
	}
	if n := reg.Histogram("checkpoint_bytes", obs.ExponentialBounds(64, 4, 12)).Count(); n == 0 {
		t.Fatal("checkpoint_bytes recorded no snapshot writes")
	}
	if n := reg.Histogram("checkpoint_duration_ms", nil).Count(); n == 0 {
		t.Fatal("checkpoint_duration_ms recorded no snapshot writes")
	}
}

package chaos

import (
	"testing"

	"scotty/internal/benchutil"
	"scotty/internal/core"
	"scotty/internal/stream"
)

// seeds are the fixed fault-plan seeds the CI chaos leg runs with; every
// schedule, stream, and verdict below is a pure function of them.
var seeds = []int64{1, 42}

const (
	chaosEvents = 8000
	chaosPar    = 2
)

// cleanRun executes the reference run: no checkpointing, no faults.
func cleanRun(t *testing.T, tech benchutil.Technique, seed int64) RunResult {
	t.Helper()
	o := Options{Technique: tech, Events: chaosEvents, Par: chaosPar, Seed: seed}
	res, err := Run(o)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if res.Stats.Results == 0 {
		t.Fatalf("clean run emitted no results — the workload proves nothing")
	}
	if err := CheckOracle(o, res); err != nil {
		t.Fatalf("clean run against the oracle: %v", err)
	}
	return res
}

// TestCrashRecoveryEquivalence is the harness's core claim: for every
// technique (snapshottable slicing operators and origin-replayed baselines
// alike), a run killed at three seeded points and supervised back to life
// emits exactly the results of an uninterrupted run.
func TestCrashRecoveryEquivalence(t *testing.T) {
	for _, tech := range Techniques() {
		for _, seed := range seeds {
			tech, seed := tech, seed
			t.Run(string(tech)+"/seed"+itoa(seed), func(t *testing.T) {
				t.Parallel()
				clean := cleanRun(t, tech, seed)
				sched := NewSchedule(seed, chaosPar, chaosEvents)
				got, err := Run(Options{
					Technique: tech, Events: chaosEvents, Par: chaosPar, Seed: seed,
					Sched: &sched, Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("chaos run: %v", err)
				}
				if got.Stats.Recoveries != len(sched.Crashes) {
					t.Fatalf("recoveries = %d, want %d (schedule %+v)",
						got.Stats.Recoveries, len(sched.Crashes), sched.Crashes)
				}
				if err := Equivalent(clean, got); err != nil {
					t.Fatalf("recovered run diverged: %v", err)
				}
			})
		}
	}
}

// snapshottable techniques are the ones whose recovery restores state from
// checkpoint files — the only ones torn files and barrier faults can affect.
var snapshottableTechniques = []benchutil.Technique{
	benchutil.LazySlicing, benchutil.EagerSlicing, benchutil.DABASlicing,
	benchutil.Keyed, benchutil.KeyedTTL, benchutil.KeyedSpill,
}

// TestTornSnapshotEquivalence tears every even-id snapshot file on disk (the
// writes still report success) and kills the run; recovery must detect the
// corruption, fall back to an intact checkpoint, and still converge on the
// clean results.
func TestTornSnapshotEquivalence(t *testing.T) {
	for _, tech := range snapshottableTechniques {
		for _, seed := range seeds {
			tech, seed := tech, seed
			t.Run(string(tech)+"/seed"+itoa(seed), func(t *testing.T) {
				t.Parallel()
				clean := cleanRun(t, tech, seed)
				sched := NewSchedule(seed, chaosPar, chaosEvents)
				sched.TornEven = true
				got, err := Run(Options{
					Technique: tech, Events: chaosEvents, Par: chaosPar, Seed: seed,
					Sched: &sched, Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("chaos run: %v", err)
				}
				if err := Equivalent(clean, got); err != nil {
					t.Fatalf("recovered run diverged: %v", err)
				}
			})
		}
	}
}

// TestBarrierFaultEquivalence drops every other barrier from one partition
// (those checkpoints never complete) and, separately, duplicates every
// barrier (alignment must be idempotent); both runs are killed per the
// schedule and must still match the clean run.
func TestBarrierFaultEquivalence(t *testing.T) {
	for _, mode := range []struct {
		name string
		m    BarrierMode
	}{{"dropped", BarriersDropped}, {"duplicated", BarriersDuplicated}} {
		for _, tech := range snapshottableTechniques {
			mode, tech := mode, tech
			t.Run(mode.name+"/"+string(tech), func(t *testing.T) {
				t.Parallel()
				seed := seeds[0]
				clean := cleanRun(t, tech, seed)
				sched := NewSchedule(seed, chaosPar, chaosEvents)
				sched.Barriers = mode.m
				got, err := Run(Options{
					Technique: tech, Events: chaosEvents, Par: chaosPar, Seed: seed,
					Sched: &sched, Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("chaos run: %v", err)
				}
				if err := Equivalent(clean, got); err != nil {
					t.Fatalf("recovered run diverged: %v", err)
				}
			})
		}
	}
}

// TestSnapshottableTechniquesRestoreFromCheckpoints pins the two recovery
// paths apart: slicing operators must recover via state restore (not origin
// replay), and baselines must recover without any restore at all.
func TestSnapshottableTechniquesRestoreFromCheckpoints(t *testing.T) {
	seed := seeds[1]
	sched := NewSchedule(seed, chaosPar, chaosEvents)
	run := func(t *testing.T, tech benchutil.Technique) RunResult {
		got, err := Run(Options{
			Technique: tech, Events: chaosEvents, Par: chaosPar, Seed: seed,
			Sched: &sched, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		return got
	}
	t.Run("slicing-restores", func(t *testing.T) {
		if got := run(t, benchutil.LazySlicing); got.Restores == 0 {
			t.Fatal("lazy slicing recovered without restoring a checkpoint")
		}
	})
	t.Run("baseline-replays-from-origin", func(t *testing.T) {
		if got := run(t, benchutil.TupleBuffer); got.Restores != 0 {
			t.Fatalf("tuple buffer restored %d checkpoints; baselines have no snapshot support", got.Restores)
		}
	})
}

// TestKeyedTTLWorkloadExpiresKeys guards the keyed-ttl technique against
// vacuity: on the shared Machine workload the idle TTL must actually fire —
// the key count has to fall after it peaked (post-gap expiry drains) — or the
// technique would just re-run plain benchutil.Keyed under a different name.
func TestKeyedTTLWorkloadExpiresKeys(t *testing.T) {
	op, err := newOperator(benchutil.KeyedTTL, "")
	if err != nil {
		t.Fatal(err)
	}
	k := op.Op.(*core.Keyed[int32, stream.Tuple, float64, float64])
	maxKeys, expired := 0, false
	for _, it := range input(benchutil.KeyedTTL, chaosEvents, seeds[0]).Items {
		op.Element(it)
		if n := k.Keys(); n > maxKeys {
			maxKeys = n
		} else if n < maxKeys {
			expired = true
		}
	}
	if maxKeys != stream.Machine().Keys {
		t.Errorf("peak key count = %d, want %d", maxKeys, stream.Machine().Keys)
	}
	if !expired {
		t.Error("idle TTL never expired a key — the keyed-ttl chaos runs prove nothing")
	}
}

// TestKeyedSpillWorkloadSpills guards the keyed-spill technique against
// vacuity the same way: under its tiny budget, one partition's operator fed
// the keys the engine routes to that partition must both write cold state
// out (cold keys rise) and re-hydrate it (cold keys fall), or the chaos
// equivalence over this technique would never touch the spill paths.
func TestKeyedSpillWorkloadSpills(t *testing.T) {
	op, err := newOperator(benchutil.KeyedSpill, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := op.Op.(*core.Keyed[int32, stream.Tuple, float64, float64])
	stored, loaded, before := false, false, 0
	for _, it := range input(benchutil.KeyedSpill, chaosEvents, seeds[0]).Items {
		if it.Kind == stream.KindEvent && it.Event.Value.Key%chaosPar != 0 {
			continue
		}
		op.Element(it)
		_, cold, _ := k.SpillStats()
		stored, loaded, before = stored || cold > before, loaded || cold < before, cold
	}
	if !stored {
		t.Error("no key was ever spilled — the budget is not binding")
	}
	if !loaded {
		t.Error("no spilled key was ever re-hydrated — the load path went unexercised")
	}
}

// TestScheduleIsDeterministic guards the reproducibility contract.
func TestScheduleIsDeterministic(t *testing.T) {
	a := NewSchedule(7, 4, 100_000)
	b := NewSchedule(7, 4, 100_000)
	if len(a.Crashes) != 3 {
		t.Fatalf("want 3 crash points, got %d", len(a.Crashes))
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatalf("schedule not deterministic: %+v vs %+v", a.Crashes, b.Crashes)
		}
	}
	c := NewSchedule(8, 4, 100_000)
	same := true
	for i := range a.Crashes {
		if a.Crashes[i] != c.Crashes[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"scotty/internal/aggregate"
	"scotty/internal/checkpoint"
	"scotty/internal/rle"
	"scotty/internal/stream"
	"scotty/internal/window"
)

// snapItems generates a deterministic benchmark-profile stream, optionally
// disordered, with 1s watermarks.
func snapItems(n int, ooo bool, seed int64) []stream.Item[stream.Tuple] {
	// Machine profile: 100 ev/s, so 3000 events span ~30s of event time and
	// dozens of watermarks fire — the cuts land with real trigger state.
	ev := stream.Generate(stream.Machine(), n, seed)
	var d stream.Disorder
	if ooo {
		d = stream.Disorder{Fraction: 0.2, MinDelay: 100, MaxDelay: 1500, Seed: seed}
	}
	arr := stream.Apply(d, ev)
	return stream.Prepare(stream.Watermarker{Period: 1000, Lag: d.MaxDelay + 1}, arr)
}

// feed pushes items through ag and returns the emitted results formatted as
// comparable strings (float formatting handles NaN identically on both
// sides).
func feed[A, Out any](ag *Aggregator[stream.Tuple, A, Out], items []stream.Item[stream.Tuple]) []string {
	var out []string
	for _, it := range items {
		var rs []Result[Out]
		if it.Kind == stream.KindEvent {
			rs = ag.ProcessElement(it.Event)
		} else {
			rs = ag.ProcessWatermark(it.Watermark)
		}
		for _, r := range rs {
			out = append(out, fmt.Sprintf("%+v", r))
		}
	}
	return out
}

// checkSuffixEquivalence is the snapshot property test: for every cut point,
// restore(snapshot(agg)) must behave identically to the original aggregator
// on any suffix stream, and the spliced run must match an uninterrupted one.
func checkSuffixEquivalence[A, Out any](
	t *testing.T,
	newAgg func() *Aggregator[stream.Tuple, A, Out],
	items []stream.Item[stream.Tuple],
) {
	t.Helper()
	clean := feed(newAgg(), items)

	for _, frac := range []float64{0.25, 0.5, 0.8} {
		cut := int(float64(len(items)) * frac)
		orig := newAgg()
		prefix := feed(orig, items[:cut])

		data, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: Snapshot: %v", cut, err)
		}
		restored := newAgg()
		if err := restored.Restore(data); err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}

		// The restored operator re-serializes to the identical bytes:
		// the snapshot captured the complete state, deterministically.
		data2, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: re-Snapshot: %v", cut, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("cut %d: restore(snapshot(agg)) serializes differently", cut)
		}

		sufOrig := feed(orig, items[cut:])
		sufRest := feed(restored, items[cut:])
		if len(sufOrig) != len(sufRest) {
			t.Fatalf("cut %d: suffix result counts differ: orig %d, restored %d", cut, len(sufOrig), len(sufRest))
		}
		for i := range sufOrig {
			if sufOrig[i] != sufRest[i] {
				t.Fatalf("cut %d: suffix result %d differs:\n  orig:     %s\n  restored: %s", cut, i, sufOrig[i], sufRest[i])
			}
		}

		spliced := append(append([]string{}, prefix...), sufRest...)
		if len(spliced) != len(clean) {
			t.Fatalf("cut %d: spliced run has %d results, uninterrupted %d", cut, len(spliced), len(clean))
		}
		for i := range clean {
			if spliced[i] != clean[i] {
				t.Fatalf("cut %d: spliced result %d differs:\n  clean:   %s\n  spliced: %s", cut, i, clean[i], spliced[i])
			}
		}
	}
}

func TestSnapshotSuffixEquivalence(t *testing.T) {
	ooo := snapItems(3000, true, 7)
	ordered := snapItems(3000, false, 7)

	t.Run("invertible-sum-outoforder", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, float64, float64] {
			ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
			ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
			ag.MustAddQuery(window.Sliding(stream.Time, 3000, 1000))
			return ag
		}, ooo)
	})
	t.Run("eager-mean", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, aggregate.MeanAgg, float64] {
			ag := New(aggregate.Mean(stream.Val), Options{Lateness: 2000, Store: StoreEager})
			ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
			ag.MustAddQuery(window.Tumbling(stream.Time, 2500))
			return ag
		}, ooo)
	})
	t.Run("holistic-median-session", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, *rle.Multiset, float64] {
			ag := New(aggregate.Median(stream.Val), Options{Lateness: 2000})
			ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
			ag.MustAddQuery(window.Session[stream.Tuple](300))
			return ag
		}, ooo)
	})
	t.Run("m4-ordered-mixed-measures", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, aggregate.M4Agg, aggregate.M4Result] {
			ag := New(aggregate.M4(stream.Val), Options{Ordered: true})
			ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
			ag.MustAddQuery(window.Tumbling(stream.Count, 100))
			return ag
		}, ordered)
	})
	t.Run("count-in-time", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, float64, float64] {
			ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
			ag.MustAddQuery(window.CountInTime[stream.Tuple](50, 500))
			return ag
		}, ooo)
	})
	t.Run("punctuation", func(t *testing.T) {
		checkSuffixEquivalence(t, func() *Aggregator[stream.Tuple, float64, float64] {
			ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
			ag.MustAddQuery(window.Punctuation(func(v stream.Tuple) bool { return v.Key == 0 }))
			return ag
		}, ooo)
	})

	// With the cases above, every -agg value scotty accepts (sum, count,
	// mean, min, max, median, p90, m4) and every partial codec
	// internal/aggregate registers round-trips through a snapshot.
	t.Run("count", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Count[stream.Tuple]()), ooo) })
	t.Run("min", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Min(stream.Val)), ooo) })
	t.Run("max", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Max(stream.Val)), ooo) })
	t.Run("p90", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Percentile(0.9, stream.Val)), ooo) })
	t.Run("variance", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Variance(stream.Val)), ooo) })
	t.Run("maxcount", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.MaxCount(stream.Val)), ooo) })
	t.Run("argmin", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.ArgMin(stream.Val)), ooo) })
	t.Run("first", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.First(stream.Val)), ooo) })
	t.Run("collect", func(t *testing.T) { checkSuffixEquivalence(t, slidingOOO(aggregate.Collect(stream.Val)), ooo) })
}

// slidingOOO builds operators over fn with a tumbling and a sliding window
// that accept the out-of-order stream.
func slidingOOO[A, Out any](fn aggregate.Function[stream.Tuple, A, Out]) func() *Aggregator[stream.Tuple, A, Out] {
	return func() *Aggregator[stream.Tuple, A, Out] {
		ag := New(fn, Options{Lateness: 2000})
		ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
		ag.MustAddQuery(window.Sliding(stream.Time, 3000, 1000))
		return ag
	}
}

func TestSnapshotTornFile(t *testing.T) {
	items := snapItems(1500, true, 3)
	mk := func() *Aggregator[stream.Tuple, float64, float64] {
		ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
		ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
		return ag
	}
	ag := mk()
	feed(ag, items)
	data, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// A torn write (every truncation point) must fail cleanly.
	for _, n := range []int{0, 3, 9, len(data) / 2, len(data) - 1} {
		if err := mk().Restore(data[:n]); !errors.Is(err, checkpoint.ErrCorruptSnapshot) {
			t.Errorf("truncated at %d: err = %v, want ErrCorruptSnapshot", n, err)
		}
	}
	// A flipped payload byte must fail cleanly.
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x10
	if err := mk().Restore(flip); !errors.Is(err, checkpoint.ErrCorruptSnapshot) {
		t.Errorf("bit flip: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestSnapshotMismatchDetected(t *testing.T) {
	items := snapItems(800, false, 5)
	ag := New(aggregate.Sum(stream.Val), Options{})
	ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
	feed(ag, items)
	data, err := ag.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different query set.
	other := New(aggregate.Sum(stream.Val), Options{})
	other.MustAddQuery(window.Tumbling(stream.Time, 2000))
	if err := other.Restore(data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("different window length: err = %v, want ErrSnapshotMismatch", err)
	}
	// Different query count.
	two := New(aggregate.Sum(stream.Val), Options{})
	two.MustAddQuery(window.Tumbling(stream.Time, 1000))
	two.MustAddQuery(window.Tumbling(stream.Time, 2000))
	if err := two.Restore(data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("extra query: err = %v, want ErrSnapshotMismatch", err)
	}
	// Different partial type.
	mean := New(aggregate.Mean(stream.Val), Options{})
	mean.MustAddQuery(window.Tumbling(stream.Time, 1000))
	if err := mean.Restore(data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("different partial type: err = %v, want ErrSnapshotMismatch", err)
	}
	// Restore into an operator that already ingested data.
	used := New(aggregate.Sum(stream.Val), Options{})
	used.MustAddQuery(window.Tumbling(stream.Time, 1000))
	feed(used, items[:10])
	if err := used.Restore(data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("used target: err = %v, want ErrSnapshotMismatch", err)
	}
}

func TestKeyedSnapshotRestore(t *testing.T) {
	items := snapItems(3000, true, 11)
	mk := func() *Keyed[int32, stream.Tuple, float64, float64] {
		return NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 30_000,
			func() *Aggregator[stream.Tuple, float64, float64] {
				ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
				ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
				ag.MustAddQuery(window.Session[stream.Tuple](500))
				return ag
			})
	}
	kfeed := func(k *Keyed[int32, stream.Tuple, float64, float64], items []stream.Item[stream.Tuple]) []string {
		var out []string
		for _, it := range items {
			var rs []KeyedResult[int32, float64]
			if it.Kind == stream.KindEvent {
				rs = k.ProcessElement(it.Event)
			} else {
				rs = k.ProcessWatermark(it.Watermark)
			}
			for _, r := range rs {
				out = append(out, fmt.Sprintf("%+v", r))
			}
		}
		return out
	}

	clean := kfeed(mk(), items)
	cut := len(items) / 2
	orig := mk()
	prefix := kfeed(orig, items[:cut])
	data, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Keys() != orig.Keys() {
		t.Fatalf("restored %d keys, want %d", restored.Keys(), orig.Keys())
	}
	suffix := kfeed(restored, items[cut:])
	spliced := append(prefix, suffix...)
	if len(spliced) != len(clean) {
		t.Fatalf("spliced %d results, clean %d", len(spliced), len(clean))
	}
	for i := range clean {
		if spliced[i] != clean[i] {
			t.Fatalf("result %d differs:\n  clean:   %s\n  spliced: %s", i, clean[i], spliced[i])
		}
	}

	// Torn keyed snapshot.
	if err := mk().Restore(data[:len(data)-2]); !errors.Is(err, checkpoint.ErrCorruptSnapshot) {
		t.Errorf("torn keyed snapshot: err = %v", err)
	}
	// idleTTL mismatch.
	other := NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 5,
		func() *Aggregator[stream.Tuple, float64, float64] {
			ag := New(aggregate.Sum(stream.Val), Options{Lateness: 2000})
			ag.MustAddQuery(window.Tumbling(stream.Time, 1000))
			ag.MustAddQuery(window.Session[stream.Tuple](500))
			return ag
		})
	if err := other.Restore(data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("idleTTL mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
}

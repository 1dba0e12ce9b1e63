// Package scotty is a from-scratch Go implementation of general stream
// slicing (Traub et al., "Efficient Window Aggregation with General Stream
// Slicing", EDBT 2019) — a window-aggregation operator for data streams that
// adapts automatically to workload characteristics: stream order, aggregation
// function properties, windowing measures, and window types.
//
// The implementation lives under internal/:
//
//   - internal/core — the general stream slicing operator (the paper's
//     contribution): stream slicer, slice manager (merge/split/update),
//     window manager, lazy and eager aggregate stores.
//   - internal/aggregate — incremental aggregation functions
//     (lift/combine/lower/invert) with declared algebraic properties.
//   - internal/window — window types: tumbling, sliding (time- and
//     count-measure), session, punctuation (FCF), multi-measure (FCA).
//   - internal/stream — the event/watermark model and synthetic workloads.
//   - internal/baselines — the compared techniques: tuple buffer, aggregate
//     tree (FlatFAT), buckets (WID/Flink), Pairs, Cutty.
//   - internal/engine — a minimal parallel tuple-at-a-time dataflow.
//   - internal/fat, internal/rle, internal/memsize, internal/benchutil,
//     internal/experiments — supporting substrates and the benchmark harness.
//
// internal/experiments defines each table and figure of the paper's
// evaluation once, in its point functions, and runs them as BenchmarkPaper.
// Executables: cmd/benchmark regenerates every experiment; cmd/scotty is a
// standalone windowed aggregation CLI. Runnable examples live under
// examples/.
package scotty

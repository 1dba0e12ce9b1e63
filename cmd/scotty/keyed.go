// Keyed mode: -keyed partitions the stream by key and windows every key's
// sub-stream independently through core.Keyed, which keeps one slice ring for
// all keys when the windows allow it and an operator per key otherwise. With
// -mem-budget the state is per-key operators under a byte budget: cold keys
// spill to -spill-dir and re-hydrate transparently (docs/MEMORY.md). This
// file only builds that operator and owns its spill lifecycle; the pipeline
// around it is main.go's.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scotty/internal/aggregate"
	"scotty/internal/core"
	"scotty/internal/spill"
	"scotty/internal/stream"
)

// keyedOp adapts core.Keyed to the operator surface: rows carry the result's
// key, and Close owns the spill teardown.
type keyedOp[A any, Out any] struct {
	*core.Keyed[int32, stream.Tuple, A, Out]
	spill   *spill.Store // nil without -mem-budget
	dir     string
	scratch bool // dir is the per-process default, removed on exit
	stderr  io.Writer
}

func (k *keyedOp[A, Out]) ProcessBatch(batch []item, rows *rowBuf[Out]) {
	rs := k.Keyed.ProcessBatch(batch)
	for i := range rs {
		rows.add(rs[i].Key, &rs[i].Result)
	}
}

func (k *keyedOp[A, Out]) Close() {
	if k.spill == nil {
		return
	}
	resident, cold, bytes := k.SpillStats()
	fmt.Fprintf(k.stderr, "spill: %d keys resident, %d cold, %d bytes on disk at exit\n", resident, cold, bytes)
	//lint:ignore errflow spill blobs are scratch; a failed sweep leaves garbage, not state
	_ = k.spill.Clear()
	if k.scratch {
		//lint:ignore errflow best-effort removal of the per-process temp dir
		_ = os.Remove(k.dir)
	}
}

// newKeyedOperator builds the keyed operator; newOperator has validated the
// query set, so the per-key MustAddQuery cannot fail. env.newDefs is a
// factory, not a slice: ContextFree definitions carry their trigger-cursor state, so every
// per-key operator needs its own fresh instances — a shared definition would
// advance one cursor for all keys and silence every operator but the first to
// trigger.
func newKeyedOperator[A any, Out any](f aggregate.Function[stream.Tuple, A, Out], env runEnv) (operator[Out], int) {
	stderr := env.stderr
	if env.fleet {
		// Per-key operators register the fleet members as plain concurrent
		// queries; the cross-query sharing rewrite (dedup/factor windows)
		// applies to the unkeyed fleet only.
		fmt.Fprintln(stderr, "keyed mode: -windows members run as unshared concurrent queries per key")
	}
	k := &keyedOp[A, Out]{stderr: stderr}
	k.Keyed = core.NewKeyed(func(v stream.Tuple) int32 { return v.Key }, 0, func() *core.Aggregator[stream.Tuple, A, Out] {
		ag := core.New(f, env.opts)
		defs, _ := env.newDefs(io.Discard)
		for _, def := range defs {
			ag.MustAddQuery(def)
		}
		return ag
	})
	if env.budget <= 0 {
		return k, 0
	}

	k.dir, k.scratch = env.spillDir, env.spillDir == ""
	if k.scratch {
		k.dir = filepath.Join(os.TempDir(), fmt.Sprintf("scotty-spill-%d", os.Getpid()))
	}
	st, err := spill.Open(k.dir)
	if err != nil {
		fmt.Fprintf(stderr, "spill: %v\n", err)
		return nil, 1
	}
	if err := k.EnableSpill(core.SpillConfig{Budget: env.budget, Store: st, Metrics: env.opts.Metrics}); err != nil {
		fmt.Fprintf(stderr, "spill: %v\n", err)
		return nil, 2
	}
	k.spill = st
	return k, 0
}

package core

import (
	"scotty/internal/stream"
)

// ProcessBatch ingests a whole arrival-ordered batch of items — events and
// watermarks — and returns every result the batch caused, in emission order.
// It is semantically identical to calling ProcessElement / ProcessWatermark
// per item, but amortizes the per-tuple overhead of the in-order pipeline:
// instead of re-checking stream order, window edges, and trigger wake
// positions on every tuple, the batch is carved into *runs* — maximal spans
// that provably cross no window edge and make no trigger due — and each run
// is folded into the open slice with one tight loop over the devirtualized
// accumulate function, deferring watermark bookkeeping and eviction to the
// run boundary.
//
// Out-of-order items, watermarks, context-aware workloads, and items that sit
// exactly on an edge fall back to the per-element path, so every slow-path
// guarantee (lateness drops, count-shift cascades, context splits) is
// preserved. The returned slice is reused by subsequent calls.
//
//slicelint:hotpath
func (ag *Aggregator[V, A, Out]) ProcessBatch(batch []stream.Item[V]) []Result[Out] {
	ag.results = ag.results[:0]
	for len(batch) > 0 {
		if batch[0].Kind != stream.KindEvent {
			ag.ingestWatermark(batch[0].Watermark)
			batch = batch[1:]
			continue
		}
		pre := ag.fastPrefix(batch)
		if pre == 0 {
			// Out of order (or fast path unavailable): the per-element
			// pipeline classifies and handles the item.
			ag.ingestElement(batch[0].Event)
			batch = batch[1:]
			continue
		}
		seg := batch[:pre]
		for len(seg) > 0 {
			n := ag.runLength(seg)
			if n == 0 {
				// A window edge or trigger is due at seg[0] itself. The
				// per-element path performs the cut / trigger, advancing
				// the cached edge positions so the next run can form.
				ag.ingestElement(seg[0].Event)
				seg = seg[1:]
				continue
			}
			ag.ingestRun(seg[:n])
			seg = seg[n:]
		}
		batch = batch[pre:]
	}
	return ag.results
}

// fastPrefix returns the length of the longest prefix of batch the run
// fast path may cover: consecutive events in monotone order. Zero routes the
// leading item through the per-element pipeline.
//
// Context-aware queries observe every tuple individually (their contexts can
// reshape slices tuple by tuple), and the edge-cache ablation exists to
// measure per-tuple edge derivation — both disable the fast path wholesale.
func (ag *Aggregator[V, A, Out]) fastPrefix(batch []stream.Item[V]) int {
	if ag.hasCA || ag.opts.DisableEdgeCache {
		return 0
	}
	// A tie on the maximum timestamp takes the out-of-order path when
	// aggregation order or canonical ranks matter (see ProcessElement), so
	// those workloads require strictly ascending times.
	strict := !ag.opts.Ordered && (!ag.st.props.Commutative || ag.needRank)
	floor := ag.st.maxSeen
	if !ag.opts.Ordered && ag.currWM != stream.MinTime && ag.currWM >= floor {
		// Events at or behind the watermark are late even when they lead
		// this operator's stream (ingestElement); keep them off the run.
		if ag.currWM == stream.MaxTime {
			return 0
		}
		floor = ag.currWM + 1
	}
	return stream.EventPrefix(batch, floor, strict)
}

// runLength returns the largest n such that folding items[:n] into the open
// slice crosses no window edge and makes no trigger due — the per-tuple
// checks of processInOrder, hoisted to one binary search per run. items must
// be an in-order event prefix (fastPrefix).
func (ag *Aggregator[V, A, Out]) runLength(items []stream.Item[V]) int {
	// Time-axis stop: the nearest cached context-free edge, the nearest
	// context-announced future edge, and — in ordered mode, where a tuple at
	// time t doubles as the watermark t-1 — the first time that makes a
	// context-free trigger due.
	stop := ag.cachedCFTimeEdge
	if len(ag.dynamicTimeEdges) > 0 && ag.dynamicTimeEdges[0] < stop {
		stop = ag.dynamicTimeEdges[0]
	}
	if ag.opts.Ordered && ag.cfTriggerWakeTime != stream.MaxTime {
		if w := ag.cfTriggerWakeTime + 1; w < stop {
			stop = w
		}
	}
	n := len(items)
	if stop != stream.MaxTime {
		if k := stream.SearchTime(items, stop); k < n {
			n = k
		}
	}
	// Count-axis stop: never run past the next count edge, nor — in ordered
	// mode — past the rank that completes a count window.
	if ag.hasCFCount {
		room := int64(n)
		if e := ag.cachedCFCountEdge; e != stream.MaxTime {
			if r := e - ag.st.totalCount; r < room {
				room = r
			}
		}
		if ag.opts.Ordered && ag.cfTriggerWakeCount != stream.MaxTime {
			if r := ag.cfTriggerWakeCount - ag.st.totalCount; r < room {
				room = r
			}
		}
		if room < int64(n) {
			if room < 0 {
				room = 0
			}
			n = int(room)
		}
	}
	return n
}

// ingestRun folds an in-order run into the open slice. runLength established
// that no edge is crossed and no trigger becomes due strictly inside the run,
// so the loop body is just tuple bookkeeping plus the devirtualized
// accumulate; watermark advancement, count-edge cutting, the ordered-mode
// count trigger, and eviction all happen once, at the run boundary.
func (ag *Aggregator[V, A, Out]) ingestRun(items []stream.Item[V]) {
	s := ag.st.open()
	agg := s.Agg
	add := ag.st.add
	keep := ag.st.keepTuples
	for i := range items {
		e := items[i].Event
		s.appendEvent(e, keep)
		agg = add(agg, e)
	}
	s.Agg = agg
	last := items[len(items)-1].Event.Time
	ag.st.totalCount += int64(len(items))
	if last > ag.st.maxSeen {
		ag.st.maxSeen = last
	}
	if ag.opts.Ordered {
		// Deferred implicit watermark: no trigger was due mid-run (runLength
		// stopped before cfTriggerWakeTime), so advancing straight to the
		// last tuple's implied watermark emits nothing the per-tuple path
		// would have emitted earlier.
		if wm := last - 1; wm > ag.currWM {
			ag.currWM = wm
		}
	}
	ag.advanceCountEdges()
	if ag.opts.Ordered && ag.hasCFCount && ag.st.totalCount >= ag.cfTriggerWakeCount {
		// Count windows complete the instant their last tuple arrives.
		ag.trigger(ag.currWM, ag.currWM, last)
		ag.refreshTriggerWake()
	}
	if ag.evictCountdown -= len(items); ag.evictCountdown <= 0 {
		ag.evict()
		ag.evictCountdown = evictEvery
	}
}

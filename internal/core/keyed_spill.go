package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"scotty/internal/checkpoint"
	"scotty/internal/memsize"
	"scotty/internal/obs"
	"scotty/internal/spill"
	"scotty/internal/stream"
)

// SpillConfig bounds a Keyed operator's resident memory (docs/MEMORY.md):
// when the estimated bytes of live per-key state exceed Budget, the
// least-recently-seen keys' operator state is serialized through the
// checkpoint codec, RLE-compressed, and written to Store; a cold key
// re-hydrates transparently on its next tuple or watermark-due emission.
type SpillConfig struct {
	// Budget is the resident-bytes target for live per-key operator state.
	// Enforcement is approximate: residency is estimated as live keys
	// times a rolling memsize average, re-sampled at watermark
	// granularity, and spilling drains to ~90% of Budget for hysteresis.
	Budget int64
	// Store is the per-operator spill directory. It is cleared on enable
	// and on restore: after a restart the snapshot, not the spill tier,
	// is the source of truth.
	Store *spill.Store
	// SampleKeys is how many live operators are re-measured per watermark
	// (default 8). Sampling keeps the reflective memsize walk off the
	// broadcast path's O(keys) budget.
	SampleKeys int
	// Metrics, when set, registers the spill gauges and counters
	// (core_keys_live, core_keys_spilled, core_spill_bytes,
	// core_spill_loads_total, core_spill_stores_total).
	Metrics *obs.Registry
}

type spillState[K comparable] struct {
	budget int64
	store  *spill.Store
	sample int
	keyC   checkpoint.Codec[K]

	cursor int   // rotating memsize sample position in order
	sum    int64 // rolling sampled bytes
	cnt    int64
	cold   int // keys currently spilled

	victims []spillVictim // LRU selection scratch
	staged  []stagedSpill // blobs of the burst in flight, until the segment commits
	m       *spillMetrics
}

type spillVictim struct {
	idx      int // position in Keyed.order, the deterministic tie-break
	lastSeen int64
}

// stagedSpill is one victim whose blob sits in the batch: the entry drops its
// resident operator only after the segment write succeeds.
type stagedSpill struct {
	idx  int // position in Keyed.order
	name string
}

type spillMetrics struct {
	keysLive    *obs.Gauge
	keysSpilled *obs.Gauge
	spillBytes  *obs.Gauge
	loads       *obs.Counter
	stores      *obs.Counter
}

// EnableSpill bounds the operator's resident state by cfg.Budget. It must be
// called before the first key materializes; the key type K and the
// operator's snapshot payload types need registered checkpoint codecs (the
// same requirement Snapshot has), which is validated here rather than at the
// first budget breach.
//
// The spill tier moves whole per-key operators to disk, so enabling it puts
// the (still empty) operator on the per-key representation whatever the query
// set would have allowed.
func (k *Keyed[K, V, A, Out]) EnableSpill(cfg SpillConfig) error {
	if k.spill != nil {
		return fmt.Errorf("core: spill already enabled")
	}
	if k.Keys() > 0 {
		return fmt.Errorf("core: EnableSpill must run before the first key materializes")
	}
	if cfg.Budget <= 0 || cfg.Store == nil {
		return fmt.Errorf("core: spill needs a positive budget and a store")
	}
	keyC, err := checkpoint.For[K]()
	if err != nil {
		return fmt.Errorf("core: spill requires a key codec: %w", err)
	}
	if _, err := k.newOp().Snapshot(); err != nil {
		return fmt.Errorf("core: spill requires snapshot codecs: %w", err)
	}
	// Leftover blobs — a previous incarnation, a crash mid-spill — are
	// garbage: re-hydrating one would resurrect stale state.
	if err := cfg.Store.Clear(); err != nil {
		return err
	}
	sample := cfg.SampleKeys
	if sample <= 0 {
		sample = 8
	}
	s := &spillState[K]{budget: cfg.Budget, store: cfg.Store, sample: sample, keyC: keyC}
	if cfg.Metrics != nil {
		s.m = &spillMetrics{
			keysLive:    cfg.Metrics.Gauge("core_keys_live"),
			keysSpilled: cfg.Metrics.Gauge("core_keys_spilled"),
			spillBytes:  cfg.Metrics.Gauge("core_spill_bytes"),
			loads:       cfg.Metrics.Counter("core_spill_loads_total"),
			stores:      cfg.Metrics.Counter("core_spill_stores_total"),
		}
	}
	k.spill = s
	if k.sm != nil {
		// Watermarks, and tuples behind them, may have come before any key.
		k.currWM, k.dropped = k.sm.currWM, k.sm.dropped
		k.sm = nil
	}
	return nil
}

// SpillStats reports the spill tier's state: resident keys, cold keys, and
// compressed bytes on disk. Without spilling every key is resident.
func (k *Keyed[K, V, A, Out]) SpillStats() (resident, cold int, diskBytes int64) {
	if k.spill == nil {
		return k.Keys(), 0, 0
	}
	return len(k.ops) - k.spill.cold, k.spill.cold, k.spill.store.Bytes()
}

// ResidentBytesEstimate estimates the heap bytes held by live keyed state. On
// the slice-major representation that is a measurement: the key directory,
// the cursors and every slice's table and cells. On the per-key one, up to 64
// resident operators are measured with memsize and the average is
// extrapolated to the live key count; cold (spilled) keys hold no aggregator
// state and contribute nothing. The walk is reflective and O(sampled state),
// so this is a reporting call, not a hot-path one.
func (k *Keyed[K, V, A, Out]) ResidentBytesEstimate() int64 {
	if k.sm != nil {
		return k.sm.residentBytes()
	}
	const sampleCap = 64
	var sum int64
	sampled := 0
	// Probe at a uniform stride across the whole key order, taking the
	// first live operator after each probe point. Uniform probing avoids
	// the recency bias a newest-first scan would have: the most recent
	// keys still hold unevicted slices and would inflate the average.
	n := len(k.order)
	stride := n / sampleCap
	if stride < 1 {
		stride = 1
	}
	for p := 0; p < n; p += stride {
		for i := p; i < n && i < p+stride; i++ {
			if ent := k.ops[k.order[i]]; ent.op != nil {
				sum += ent.op.residentBytes()
				sampled++
				break
			}
		}
	}
	if sampled == 0 {
		return 0
	}
	live := len(k.ops)
	if k.spill != nil {
		live -= k.spill.cold
	}
	return sum / int64(sampled) * int64(live)
}

// rehydrate loads a cold key's operator state back off disk. A cold key that
// cannot come back is lost aggregation state, so failures are loud.
//
//slicelint:coldpath re-hydration runs once per cold key touched, never per tuple; the disk read and decode amortize over the key's warm lifetime
func (k *Keyed[K, V, A, Out]) rehydrate(key K, ent *keyedEntry[V, A, Out]) {
	s := k.spill
	blob, err := s.store.Get(ent.file)
	if err == nil {
		op := k.newOp()
		if err = op.Restore(blob); err == nil {
			ent.op = op
		}
	}
	if err != nil {
		panic(fmt.Sprintf("core: keyed spill: re-hydrating key %v: %v", key, err))
	}
	//lint:ignore errflow a blob that cannot be deleted is orphaned garbage, not lost state; Clear sweeps it on the next restore
	_ = s.store.Delete(ent.file)
	ent.file = ""
	s.cold--
	if s.m != nil {
		s.m.loads.Inc()
	}
}

// spillVictims serializes the victims' operators into one spill batch,
// commits it as a single segment file, and only then drops the resident
// state — an entry never goes cold before its blob is durably on disk. Each
// victim's wake (just recomputed by the broadcast) decides when the key must
// come back for an emission.
//
//slicelint:coldpath spilling runs only when the budget is newly exceeded, at watermark granularity; one segment write per burst amortizes file creation across every victim
func (k *Keyed[K, V, A, Out]) spillVictims(victims []spillVictim) error {
	s := k.spill
	batch := s.store.NewBatch()
	s.staged = s.staged[:0]
	for _, v := range victims {
		key := k.order[v.idx]
		ent := k.ops[key]
		if len(ent.op.pendingUpdates) > 0 {
			// Defensive: a pending update must flush at the next watermark;
			// such a key reports wake = MinTime and should never be selected.
			continue
		}
		blob, err := ent.op.Snapshot()
		if err != nil {
			return err
		}
		name, err := k.spillName(key)
		if err != nil {
			return err
		}
		batch.Add(name, blob)
		s.staged = append(s.staged, stagedSpill{idx: v.idx, name: name})
	}
	if err := batch.Commit(); err != nil {
		return err
	}
	for _, st := range s.staged {
		ent := k.ops[k.order[st.idx]]
		ent.file = st.name
		ent.op = nil
		s.cold++
		if s.m != nil {
			s.m.stores.Inc()
		}
	}
	return nil
}

// spillName derives a stable file name from the key's codec bytes; long keys
// fall back to a content hash to respect file-name length limits.
func (k *Keyed[K, V, A, Out]) spillName(key K) (string, error) {
	enc := checkpoint.NewEncoder()
	k.spill.keyC.Encode(enc, key)
	payload, err := checkpoint.Payload(enc.Seal())
	if err != nil {
		return "", err
	}
	if len(payload) > 32 {
		h := sha256.Sum256(payload)
		return hex.EncodeToString(h[:]), nil
	}
	return hex.EncodeToString(payload), nil
}

// enforceBudget re-samples live operator sizes and spills the
// least-recently-seen keys until the estimated residency fits the budget.
// Runs at the tail of every watermark broadcast.
//
//slicelint:coldpath budget enforcement runs at watermark granularity; memsize sampling and LRU selection amortize over all tuples since the previous watermark
func (k *Keyed[K, V, A, Out]) enforceBudget(wm int64) {
	s := k.spill
	defer k.publishSpillGauges()
	if wm == stream.MaxTime {
		return // final drain: the stream is over, spilling buys nothing
	}
	liveKeys := len(k.order) - s.cold
	if liveKeys == 0 {
		return
	}
	// Re-measure a rotating sample of live operators. memsize.Of is a
	// reflective walk, so residency is estimated as liveKeys times a
	// rolling average instead of measured exhaustively.
	const horizon = 1024 // rolling window, in samples
	sampled := 0
	for scan := 0; scan < len(k.order) && sampled < s.sample; scan++ {
		s.cursor++
		if s.cursor >= len(k.order) {
			s.cursor = 0
		}
		ent := k.ops[k.order[s.cursor]]
		if ent.op == nil {
			continue
		}
		if s.cnt >= horizon {
			s.sum -= s.sum / s.cnt
			s.cnt--
		}
		s.sum += ent.op.residentBytes()
		s.cnt++
		sampled++
	}
	if s.cnt == 0 {
		return
	}
	avg := s.sum / s.cnt
	if avg <= 0 {
		avg = 1
	}
	// The budget is a ceiling the resident estimate must stay strictly
	// under, so sitting exactly at it counts as a breach.
	if avg*int64(liveKeys) < s.budget {
		return
	}
	// Over budget: spill coldest-first (LRU on lastSeen, first-appearance
	// order as the deterministic tie-break) down to ~90% of the budget so
	// a steady trickle of new keys does not re-trigger selection every
	// watermark.
	keep := int((s.budget - s.budget/10) / avg)
	if keep < 1 {
		keep = 1
	}
	n := liveKeys - keep
	if n <= 0 {
		return
	}
	s.victims = s.victims[:0]
	for idx, key := range k.order {
		if ent := k.ops[key]; ent.op != nil {
			s.victims = append(s.victims, spillVictim{idx: idx, lastSeen: ent.lastSeen})
		}
	}
	sort.Slice(s.victims, func(i, j int) bool {
		a, b := s.victims[i], s.victims[j]
		if a.lastSeen != b.lastSeen {
			return a.lastSeen < b.lastSeen
		}
		return a.idx < b.idx
	})
	if err := k.spillVictims(s.victims[:n]); err != nil {
		panic(fmt.Sprintf("core: keyed spill: spilling burst of %d keys: %v", n, err))
	}
}

func (k *Keyed[K, V, A, Out]) publishSpillGauges() {
	s := k.spill
	if s == nil || s.m == nil {
		return
	}
	s.m.keysLive.Set(int64(len(k.ops) - s.cold))
	s.m.keysSpilled.Set(int64(s.cold))
	s.m.spillBytes.Set(s.store.Bytes())
}

// residentBytes estimates the heap bytes attributable to this operator
// alone: the slice store (including stored tuples), query state, DABA
// rings, and reusable buffers — excluding the metrics registry, which keyed
// layers typically share across all per-key operators.
func (ag *Aggregator[V, A, Out]) residentBytes() int64 {
	n := memsize.Of(ag.st) +
		memsize.Of(ag.queries) +
		memsize.Of(ag.results) +
		memsize.Of(ag.pendingUpdates) +
		memsize.Of(ag.dynamicTimeEdges)
	if len(ag.dabaRings) > 0 {
		n += memsize.Of(ag.dabaRings)
	}
	return n + 256 // struct shell, caches, and small scalar fields
}

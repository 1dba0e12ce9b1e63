package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"scotty/internal/checkpoint"
)

// Snapshottable is the optional Processor extension checkpointing relies on.
// core.Aggregator and core.Keyed implement it; a processor wrapping one
// forwards to it. Workers snapshot at every barrier; Restore is called on a
// freshly built processor before any replayed item reaches it. Processors
// that do not implement it are still recoverable, but only by replaying the
// stream from the origin (no checkpoint of the run ever completes).
type Snapshottable interface {
	// Snapshot serializes the processor's complete mutable state.
	Snapshot() ([]byte, error)
	// Restore loads state into a freshly constructed processor.
	Restore(data []byte) error
}

// ReplayTrimmer is the optional Processor extension for exactly-once external
// side effects. The engine's replay is exact with respect to processor state,
// but a failed attempt may already have pushed results beyond the restored
// checkpoint to an external sink (a log, a socket). After restoring a
// partition the supervisor calls TrimReplay with the number of results the
// failed attempts emitted past the checkpoint; the processor suppresses that
// many re-emissions before resuming side effects. The count is exact when
// crashes happen between processing calls (each call's emissions are atomic);
// a panic inside a processing call can leave a partially flushed sink behind.
type ReplayTrimmer interface {
	TrimReplay(n int64)
}

// BarrierAction is a chaos hook verdict for one (barrier, partition)
// delivery.
type BarrierAction int

const (
	// BarrierDeliver delivers the barrier normally.
	BarrierDeliver BarrierAction = iota
	// BarrierDrop withholds the barrier from the partition: its snapshot is
	// never written, the checkpoint never completes, and recovery falls back
	// to an earlier one.
	BarrierDrop
	// BarrierDuplicate delivers the barrier twice; the second snapshot
	// overwrites the identical file, proving alignment is idempotent.
	BarrierDuplicate
)

// CheckpointConfig enables watermark-aligned checkpoints and supervised
// restarts. The zero value disables both: panics then surface as a RunError
// after the single attempt, and nothing touches the filesystem.
type CheckpointConfig struct {
	// Interval is the event-time distance (ms) between checkpoint barriers;
	// 0 disables checkpointing. The source injects a barrier after the first
	// watermark that is at least Interval past the previous barrier's.
	Interval int64
	// Dir is where partition snapshots are written (one file per partition
	// per barrier, ckpt-<id>-p<p>.sck). Required when Interval > 0. Use a
	// fresh directory per logical run: recovery trusts any complete
	// checkpoint it finds here.
	Dir string
	// MaxRestarts caps supervised restarts after partition failures;
	// 0 selects 3 when checkpointing is enabled, negative disables restarts.
	MaxRestarts int
	// Backoff is the initial restart delay, doubling per attempt (capped at
	// 64x); 0 selects 10ms.
	Backoff time.Duration
	// OnFailure, when non-nil, observes every partition failure before the
	// supervisor decides between restart and terminal RunError.
	OnFailure func(err *PartitionError)
	// Sleep, when non-nil, replaces time.Sleep for restart backoff so tests
	// recover without waiting.
	Sleep func(d time.Duration)
	// WriteFile, when non-nil, replaces the default atomic write (tmp file +
	// rename) of snapshot files. Chaos tests tear writes through it.
	WriteFile func(path string, data []byte) error
	// BarrierFault, when non-nil, decides per (barrier id, partition) how the
	// barrier is delivered. Chaos tests drop and duplicate barriers through
	// it.
	BarrierFault func(id, partition int) BarrierAction
}

// barrier is the checkpoint marker the source injects into every partition's
// stream after the triggering watermark. Offset and events pin the exact
// replay position: the checkpoint covers items[:offset], of which events were
// data tuples.
type barrier struct {
	id     int
	offset int   // source items consumed when the barrier was injected
	events int64 // data events dispatched before the barrier
	wm     int64 // watermark that triggered the barrier
}

// ckptFile is one partition's share of a checkpoint, as persisted on disk.
type ckptFile struct {
	id        int
	par       int
	part      int
	offset    int
	events    int64
	wm        int64
	emitted   int64 // results this partition emitted since the stream origin
	processed int64 // data tuples this partition processed since the origin
	dead      int64 // data tuples this partition dead-lettered since the origin
	state     []byte
}

func ckptPath(dir string, id, part int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d-p%d.sck", id, part))
}

func encodeCkptFile(f ckptFile) []byte {
	enc := checkpoint.NewEncoder()
	enc.Int(f.id)
	enc.Int(f.par)
	enc.Int(f.part)
	enc.Int(f.offset)
	enc.Int64(f.events)
	enc.Int64(f.wm)
	enc.Int64(f.emitted)
	enc.Int64(f.processed)
	enc.Int64(f.dead)
	enc.Bytes(f.state)
	return enc.Seal()
}

func decodeCkptFile(data []byte) (ckptFile, error) {
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return ckptFile{}, err
	}
	f := ckptFile{
		id:        dec.Int(),
		par:       dec.Int(),
		part:      dec.Int(),
		offset:    dec.Int(),
		events:    dec.Int64(),
		wm:        dec.Int64(),
		emitted:   dec.Int64(),
		processed: dec.Int64(),
		dead:      dec.Int64(),
		state:     dec.Bytes(),
	}
	return f, dec.Err()
}

// restorePoint is a complete, validated checkpoint: consistent metadata plus
// every partition's state.
type restorePoint struct {
	id        int
	offset    int
	events    int64
	wm        int64
	emitted   []int64
	processed []int64 // per-partition processed-tuple counts at the barrier
	dead      []int64 // per-partition dead-lettered counts at the barrier
	states    [][]byte
}

// scanCheckpoints returns every complete, structurally valid checkpoint in
// dir for a par-partition run, newest first. Torn, truncated, or
// inconsistent checkpoints are skipped — that is the fallback path the chaos
// torn-file tests exercise.
func scanCheckpoints(dir string, par int) []restorePoint {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	ids := make([]int, 0, len(entries))
	for _, e := range entries {
		var id, part int
		//lint:ignore errflow Sscanf's error just means the entry is not a checkpoint file; n == 2 is the real validity check
		if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d-p%d.sck", &id, &part); n == 2 && filepath.Ext(e.Name()) == ".sck" {
			ids = append(ids, id)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	var out []restorePoint
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		if rp, ok := loadCheckpoint(dir, id, par); ok {
			out = append(out, rp)
		}
	}
	return out
}

// loadCheckpoint reads and validates all partition files of one checkpoint.
func loadCheckpoint(dir string, id, par int) (restorePoint, bool) {
	rp := restorePoint{
		id: id, emitted: make([]int64, par),
		processed: make([]int64, par), dead: make([]int64, par),
		states: make([][]byte, par),
	}
	for p := 0; p < par; p++ {
		data, err := os.ReadFile(ckptPath(dir, id, p))
		if err != nil {
			return restorePoint{}, false
		}
		f, err := decodeCkptFile(data)
		if err != nil || f.id != id || f.par != par || f.part != p {
			return restorePoint{}, false
		}
		if p == 0 {
			rp.offset, rp.events, rp.wm = f.offset, f.events, f.wm
		} else if f.offset != rp.offset || f.events != rp.events || f.wm != rp.wm {
			return restorePoint{}, false
		}
		rp.emitted[p] = f.emitted
		rp.processed[p] = f.processed
		rp.dead[p] = f.dead
		rp.states[p] = f.state
	}
	return rp, true
}

// ckptTracker counts per-barrier acks from the workers; a checkpoint is
// complete once all partitions have written their snapshot files. The source
// garbage-collects superseded checkpoints through it, always keeping the last
// two completed ones so a checkpoint torn on disk still has a valid
// predecessor.
type ckptTracker struct {
	mu        sync.Mutex
	par       int
	acks      map[int]int
	completed []int
}

func (t *ckptTracker) ack(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.acks[id]++
	if t.acks[id] == t.par {
		delete(t.acks, id)
		t.completed = append(t.completed, id)
	}
}

func (t *ckptTracker) gc(dir string) {
	t.mu.Lock()
	sort.Ints(t.completed)
	var stale []int
	if len(t.completed) > 2 {
		stale = append(stale, t.completed[:len(t.completed)-2]...)
		t.completed = append(t.completed[:0], t.completed[len(t.completed)-2:]...)
	}
	t.mu.Unlock()
	for _, id := range stale {
		for p := 0; p < t.par; p++ {
			//lint:ignore errflow gc is best-effort: a file that cannot be removed is retried on the next gc and never corrupts recovery
			_ = os.Remove(ckptPath(dir, id, p))
		}
	}
}

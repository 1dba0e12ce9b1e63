// Package spill stores cold per-key operator state on disk. A Store is a
// flat directory of segment files, each holding the RLE-compressed snapshot
// blobs of one spill burst plus a trailer index, owned by exactly one keyed
// operator (see docs/MEMORY.md).
//
// Budget enforcement spills keys in bursts (all victims of one watermark),
// so the store batches a burst into a single segment write: file creation is
// the dominant cost of small blobs on a journaled filesystem, and one file
// per burst amortizes it across every victim. Segments are written atomically
// (temp file + rename), so a crash mid-spill never leaves a half-written
// segment under a live name; recovery nevertheless clears the directory
// before reuse, because after a restart the snapshot — not the spill tier —
// is the source of truth. Integrity of a blob's content is carried by the
// snapshot frame inside it (CRC32), not duplicated here.
package spill

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scotty/internal/checkpoint"
	"scotty/internal/rle"
)

const (
	suffix = ".spill"
	// segMagic terminates every segment file; a file without it is garbage
	// (and swept by Clear), never a decodable segment.
	segMagic = "SPILSEG1"
	// footerSize is indexOff (8) + entry count (8) + magic (8).
	footerSize = 24
)

// blobRef locates one live blob inside a segment file.
type blobRef struct {
	seg  int
	off  int64
	size int64
}

// Store is a directory of segment files plus an in-memory index of the live
// blobs inside them. It is not safe for concurrent use; the keyed operator
// that owns it is single-threaded.
type Store struct {
	dir     string
	blobs   map[string]blobRef // name -> location of the live blob
	segLive map[int]int        // segment id -> live blobs still inside
	nextSeg int
	bytes   int64 // compressed bytes of live blobs (garbage excluded)
	// scratch reuses the segment assembly buffer across bursts; spilling
	// happens in bursts when a budget is newly exceeded.
	scratch []byte
}

// Open creates (or reuses) the directory and indexes the blobs of any
// segments already in it. Callers that cannot trust leftover blobs —
// anything restoring from a snapshot — should Clear before first use.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	s := &Store{dir: dir, blobs: map[string]blobRef{}, segLive: map[int]int{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	// Ascending segment id: a name that appears in several segments (a
	// replaced blob whose old segment still holds garbage) resolves to the
	// newest copy.
	ids := []int{}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), suffix)
		if !ok || e.IsDir() {
			continue
		}
		var id int
		if n, err := fmt.Sscanf(name, "seg-%d", &id); err != nil || n != 1 {
			continue // not a segment; Clear sweeps it
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; a handful of segments
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	for _, id := range ids {
		if err := s.indexSegment(id); err != nil {
			return nil, err
		}
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
	}
	return s, nil
}

// indexSegment parses one segment's trailer and registers its blobs. An
// undecodable segment is skipped as garbage: segment writes are atomic, so
// corruption here means someone else's file, and recovery Clears the
// directory before trusting any of it anyway.
func (s *Store) indexSegment(id int) error {
	raw, err := os.ReadFile(s.segPath(id))
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	if len(raw) < footerSize || string(raw[len(raw)-8:]) != segMagic {
		return nil
	}
	foot := raw[len(raw)-footerSize:]
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:8]))
	count := int64(binary.LittleEndian.Uint64(foot[8:16]))
	if indexOff < 0 || indexOff > int64(len(raw)-footerSize) {
		return nil
	}
	idx := raw[indexOff : len(raw)-footerSize]
	for n := int64(0); n < count; n++ {
		if len(idx) < 18 {
			return nil
		}
		off := int64(binary.LittleEndian.Uint64(idx[0:8]))
		size := int64(binary.LittleEndian.Uint64(idx[8:16]))
		nameLen := int(binary.LittleEndian.Uint16(idx[16:18]))
		idx = idx[18:]
		if len(idx) < nameLen || off < 0 || size < 0 || off+size > indexOff {
			return nil
		}
		name := string(idx[:nameLen])
		idx = idx[nameLen:]
		s.unlink(name) // a newer segment wins over an older copy
		s.blobs[name] = blobRef{seg: id, off: off, size: size}
		s.segLive[id]++
		s.bytes += size
	}
	return nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// Bytes returns the total compressed size of all live blobs. Disk usage can
// exceed it: a segment holding both live and re-hydrated (dead) blobs stays
// on disk until its last live blob is deleted or the store is cleared.
func (s *Store) Bytes() int64 { return s.bytes }

// Files returns the number of live blobs.
func (s *Store) Files() int { return len(s.blobs) }

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d%s", id, suffix))
}

// Batch accumulates the compressed blobs of one spill burst; Commit writes
// them as a single segment file. A Store supports one batch at a time (it
// lends its scratch buffer to the batch).
type Batch struct {
	s       *Store
	buf     []byte
	entries []batchEntry
}

type batchEntry struct {
	name string
	off  int64
	size int64
}

// NewBatch starts a spill burst.
func (s *Store) NewBatch() *Batch {
	return &Batch{s: s, buf: s.scratch[:0]}
}

// Add compresses payload into the batch under name and returns the
// compressed size. Nothing is visible in the store until Commit.
//
//slicelint:coldpath spilling runs when a memory budget is newly exceeded, never per tuple; compression trades latency off the hot path for bounded residency
func (b *Batch) Add(name string, payload []byte) int64 {
	off := int64(len(b.buf))
	b.buf = rle.CompressBytes(b.buf, payload)
	size := int64(len(b.buf)) - off
	b.entries = append(b.entries, batchEntry{name: name, off: off, size: size})
	return size
}

// Commit writes the batch as one segment file (atomically: temp file +
// rename) and indexes its blobs, replacing any previous blobs of the same
// names. An empty batch is a no-op.
//
//slicelint:coldpath one segment write per spill burst amortizes file creation across every victim of a budget breach
func (b *Batch) Commit() error {
	defer func() { b.s.scratch = b.buf[:0] }() // return the lent buffer
	if len(b.entries) == 0 {
		return nil
	}
	indexOff := int64(len(b.buf))
	var scratch [18]byte
	for _, e := range b.entries {
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(e.off))
		binary.LittleEndian.PutUint64(scratch[8:16], uint64(e.size))
		binary.LittleEndian.PutUint16(scratch[16:18], uint16(len(e.name)))
		b.buf = append(b.buf, scratch[:]...)
		b.buf = append(b.buf, e.name...)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(foot[8:16], uint64(len(b.entries)))
	copy(foot[16:], segMagic)
	b.buf = append(b.buf, foot[:]...)

	s := b.s
	id := s.nextSeg
	path := s.segPath(id)
	if err := checkpoint.WriteFileAtomic(path, b.buf); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	s.nextSeg++
	for _, e := range b.entries {
		s.unlink(e.name)
		s.blobs[e.name] = blobRef{seg: id, off: e.off, size: e.size}
		s.segLive[id]++
		s.bytes += e.size
	}
	b.entries = b.entries[:0]
	return nil
}

// Put compresses payload and stores it under name, replacing any previous
// blob: a single-blob burst. It returns the compressed size.
func (s *Store) Put(name string, payload []byte) (int64, error) {
	b := s.NewBatch()
	n := b.Add(name, payload)
	if err := b.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// Get reads and decompresses the blob stored under name.
//
//slicelint:coldpath re-hydration runs once per cold key touched; the disk read amortizes over the key's warm lifetime
func (s *Store) Get(name string) ([]byte, error) {
	ref, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("spill: no blob %q", name)
	}
	f, err := os.Open(s.segPath(ref.seg))
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	defer f.Close()
	comp := make([]byte, ref.size)
	if _, err := f.ReadAt(comp, ref.off); err != nil {
		return nil, fmt.Errorf("spill: blob %q: %w", name, err)
	}
	payload, err := rle.DecompressBytes(nil, comp)
	if err != nil {
		return nil, fmt.Errorf("spill: blob %q: %w", name, err)
	}
	return payload, nil
}

// unlink drops name from the index (no-op when absent) and removes its
// segment file once no live blob remains inside.
func (s *Store) unlink(name string) {
	ref, ok := s.blobs[name]
	if !ok {
		return
	}
	delete(s.blobs, name)
	s.bytes -= ref.size
	s.segLive[ref.seg]--
	if s.segLive[ref.seg] <= 0 {
		delete(s.segLive, ref.seg)
		//lint:ignore errflow a segment of dead blobs that cannot be removed is orphaned garbage, not lost state; Clear sweeps it on the next restore
		_ = os.Remove(s.segPath(ref.seg))
	}
}

// Delete removes the blob stored under name, if any.
func (s *Store) Delete(name string) error {
	s.unlink(name)
	return nil
}

// Clear removes every segment (and stray temp file) from the directory.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), suffix) || strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return fmt.Errorf("spill: %w", err)
			}
		}
	}
	s.blobs = map[string]blobRef{}
	s.segLive = map[int]int{}
	s.bytes = 0
	return nil
}

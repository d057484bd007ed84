package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"corec/internal/scrub"
)

// recordLoc addresses one record inside the disk tier.
type recordLoc struct {
	seg  int
	off  int64
	rlen int64
}

type segment struct {
	id   int
	f    *os.File
	size int64
	live int64 // bytes of records still referenced by the index
	dead int64 // bytes of superseded records, tombstones included
}

// diskTier is the L2 store: a directory of append-only segment files. All
// mutation and read paths serialize on mu — cold reads are already off the
// foreground fast path, and a single writer keeps the live/dead accounting
// and compaction trivially consistent.
type diskTier struct {
	dir    string
	target int64 // roll the active segment past this size

	mu     sync.Mutex
	segs   map[int]*segment
	active *segment
	nextID int
}

// restoredEntry is one key recovered by the open-time scan.
type restoredEntry struct {
	loc   recordLoc
	tier  Tier // TierDisk or TierRemote
	epoch int64
	sum   uint64 // payload checksum (manifest sum for remote entries)
	size  int64  // payload size (remote object size for remote entries)
}

// RestoreReport summarizes what the open-time scan of the disk tier found.
type RestoreReport struct {
	// Restored is the number of live records re-indexed from segments.
	Restored int
	// Quarantined is the number of records whose payload failed its
	// checksum under a valid header: skipped, counted, space reclaimed by
	// compaction. A segment written by an older build that summed payloads
	// with CRC-64 is quarantined record by record this way; the scrubber
	// restores those shards from their stripes.
	Quarantined int
	// TruncatedTails is the number of segments cut back at a torn or
	// corrupt record header (an interrupted append).
	TruncatedTails int
}

// openDisk opens (creating if needed) the segment directory, scans every
// segment revalidating record checksums, and returns the rebuilt index.
// The index is always rebuilt from the scan — no separate index file exists
// to go stale or be lost.
func openDisk(dir string, target int64) (*diskTier, map[string]restoredEntry, RestoreReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RestoreReport{}, fmt.Errorf("storage: open disk tier: %w", err)
	}
	d := &diskTier{dir: dir, target: target, segs: make(map[int]*segment)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, RestoreReport{}, fmt.Errorf("storage: scan disk tier: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, de := range names {
		var id int
		if _, err := fmt.Sscanf(de.Name(), "seg-%06d.log", &id); err == nil && strings.HasSuffix(de.Name(), ".log") {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)

	idx := make(map[string]restoredEntry)
	var rep RestoreReport
	for _, id := range ids {
		s, err := d.openSegment(id)
		if err != nil {
			return nil, nil, RestoreReport{}, err
		}
		if err := d.scanSegment(s, idx, &rep); err != nil {
			return nil, nil, RestoreReport{}, err
		}
		d.segs[id] = s
		if id >= d.nextID {
			d.nextID = id + 1
		}
	}
	rep.Restored = len(idx)
	// Resume appending to the last segment if it still has headroom.
	if len(ids) > 0 {
		last := d.segs[ids[len(ids)-1]]
		if last.size < d.target {
			d.active = last
		}
	}
	return d, idx, rep, nil
}

func (d *diskTier) openSegment(id int) (*segment, error) {
	path := filepath.Join(d.dir, fmt.Sprintf("seg-%06d.log", id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // open failed anyway; nothing more to do with the handle
		return nil, fmt.Errorf("storage: stat segment: %w", err)
	}
	return &segment{id: id, f: f, size: st.Size()}, nil
}

// scanSegment walks s record by record, revalidating checksums and merging
// live records into idx. Scan order is append order, so a later record for
// a key supersedes an earlier one and a tombstone kills the key.
func (d *diskTier) scanSegment(s *segment, idx map[string]restoredEntry, rep *RestoreReport) error {
	hdr := make([]byte, headerSize)
	off := int64(0)
	truncate := func() error {
		if off < s.size {
			if err := s.f.Truncate(off); err != nil {
				return fmt.Errorf("storage: truncate torn segment: %w", err)
			}
			s.size = off
			rep.TruncatedTails++
		}
		return nil
	}
	for off < s.size {
		n, err := s.f.ReadAt(hdr, off)
		if n < headerSize {
			if err != nil && err != io.EOF {
				return fmt.Errorf("storage: read segment: %w", err)
			}
			return truncate()
		}
		h, derr := decodeHeader(hdr)
		if derr != nil {
			// A bad header means everything from here on is untrustworthy:
			// record lengths frame the log, and this frame is broken.
			return truncate()
		}
		rlen := h.recordLen()
		if off+rlen > s.size {
			return truncate()
		}
		buf := make([]byte, int(rlen)-headerSize)
		if _, err := s.f.ReadAt(buf, off+headerSize); err != nil {
			return fmt.Errorf("storage: read segment record: %w", err)
		}
		key := string(buf[:h.keyLen])
		payload := buf[h.keyLen:]
		loc := recordLoc{seg: s.id, off: off, rlen: rlen}
		off += rlen
		if scrub.Checksum(payload) != h.paySum {
			// Localized rot under a valid header: quarantine this record and
			// keep scanning — the frame itself is intact.
			rep.Quarantined++
			s.dead += rlen
			continue
		}
		if old, ok := idx[key]; ok {
			d.accountDead(old.loc)
		}
		switch h.typ {
		case recData:
			idx[key] = restoredEntry{loc: loc, tier: TierDisk, epoch: h.epoch, sum: h.paySum, size: int64(h.dataLen)}
			s.live += rlen
		case recRemote:
			sum, size, ok := decodeManifest(payload)
			if !ok {
				rep.Quarantined++
				s.dead += rlen
				continue
			}
			idx[key] = restoredEntry{loc: loc, tier: TierRemote, epoch: h.epoch, sum: sum, size: size}
			s.live += rlen
		case recDead:
			delete(idx, key)
			s.dead += rlen
		}
	}
	return nil
}

// append writes one record and returns its location. The active segment
// rolls once it passes the target size, so segments stay bounded and
// compaction can retire them wholesale.
func (d *diskTier) append(typ byte, key string, epoch int64, payload []byte) (recordLoc, error) {
	if len(key) == 0 || len(key) > maxKeyLen || len(payload) > maxDataLen {
		return recordLoc{}, errBadLength
	}
	h := recordHeader{typ: typ, keyLen: len(key), dataLen: len(payload), epoch: epoch, paySum: scrub.Checksum(payload)}
	rec := encodeHeader(h)
	rec = append(rec, key...)
	rec = append(rec, payload...)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active == nil {
		s, err := d.openSegment(d.nextID)
		if err != nil {
			return recordLoc{}, err
		}
		d.segs[d.nextID] = s
		d.nextID++
		d.active = s
	}
	s := d.active
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return recordLoc{}, fmt.Errorf("storage: append record: %w", err)
	}
	loc := recordLoc{seg: s.id, off: s.size, rlen: int64(len(rec))}
	s.size += loc.rlen
	if typ == recDead {
		s.dead += loc.rlen
	} else {
		s.live += loc.rlen
	}
	if s.size >= d.target {
		d.active = nil
	}
	return loc, nil
}

// read returns the payload of the record at loc, revalidating both header
// and payload checksums. A dropped segment (compacted away under a stale
// loc) returns errSegGone so the caller can re-resolve and retry.
func (d *diskTier) read(loc recordLoc) ([]byte, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.segs[loc.seg]
	if !ok {
		return nil, 0, errSegGone
	}
	buf := make([]byte, int(loc.rlen))
	if _, err := s.f.ReadAt(buf, loc.off); err != nil {
		return nil, 0, fmt.Errorf("storage: read record: %w", err)
	}
	h, err := decodeHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	if h.recordLen() != loc.rlen {
		return nil, 0, errBadHeader
	}
	payload := buf[headerSize+h.keyLen:]
	if scrub.Checksum(payload) != h.paySum {
		return nil, 0, errBadPayload
	}
	return payload, h.epoch, nil
}

// markDead retires the record at loc from the live set (superseded by a
// later record or manifest). It is accounting only — writing a tombstone,
// when one is needed for crash safety, is a separate append.
func (d *diskTier) markDead(loc recordLoc) {
	d.mu.Lock()
	d.accountDead(loc)
	d.mu.Unlock()
}

func (d *diskTier) accountDead(loc recordLoc) {
	if s, ok := d.segs[loc.seg]; ok {
		s.live -= loc.rlen
		s.dead += loc.rlen
	}
}

// corrupt overwrites the payload bytes of the record at loc in place —
// the disk half of bit-rot injection. The record header keeps its original
// checksum, so the next read detects the rot.
func (d *diskTier) corrupt(loc recordLoc, keyLen int, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.segs[loc.seg]
	if !ok {
		return errSegGone
	}
	if int64(headerSize+keyLen+len(payload)) != loc.rlen {
		return errBadLength
	}
	if _, err := s.f.WriteAt(payload, loc.off+headerSize+int64(keyLen)); err != nil {
		return fmt.Errorf("storage: corrupt record: %w", err)
	}
	return nil
}

// compactCandidate returns a retired segment whose dead fraction exceeds
// frac, or -1. The active segment is never compacted — it is still growing.
func (d *diskTier) compactCandidate(frac float64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	best, bestFrac := -1, frac
	for id, s := range d.segs {
		if d.active != nil && id == d.active.id {
			continue
		}
		if s.size == 0 {
			continue
		}
		if f := float64(s.dead) / float64(s.size); f >= bestFrac {
			// Deterministic pick: highest dead fraction, lowest id on ties.
			if f > bestFrac || best == -1 || id < best {
				best, bestFrac = id, f
			}
		}
	}
	return best
}

// tombstones returns the keys of segment id's tombstone records.
func (d *diskTier) tombstones(id int) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.segs[id]
	if !ok {
		return nil, errSegGone
	}
	hdr := make([]byte, headerSize)
	var keys []string
	for off := int64(0); off < s.size; {
		if _, err := s.f.ReadAt(hdr, off); err != nil {
			return nil, fmt.Errorf("storage: read segment: %w", err)
		}
		h, err := decodeHeader(hdr)
		if err != nil {
			return nil, err
		}
		if h.typ == recDead {
			key := make([]byte, h.keyLen)
			if _, err := s.f.ReadAt(key, off+headerSize); err != nil {
				return nil, fmt.Errorf("storage: read segment record: %w", err)
			}
			keys = append(keys, string(key))
		}
		off += h.recordLen()
	}
	return keys, nil
}

// hasOlder reports whether a segment older than id remains. Segment ids
// follow append order, so only these can hold records a tombstone in id
// shadows.
func (d *diskTier) hasOlder(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for sid := range d.segs {
		if sid < id {
			return true
		}
	}
	return false
}

// dropSegment closes and deletes a fully-compacted segment file.
func (d *diskTier) dropSegment(id int) {
	d.mu.Lock()
	s, ok := d.segs[id]
	if ok {
		delete(d.segs, id)
		if d.active == s {
			d.active = nil
		}
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	_ = s.f.Close()           // best effort: the file is about to be unlinked
	_ = os.Remove(s.f.Name()) // best effort: an orphan file is rescanned next open
}

// bytes returns the live and dead byte totals across all segments.
func (d *diskTier) bytes() (live, dead int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		live += s.live
		dead += s.dead
	}
	return live, dead
}

func (d *diskTier) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		_ = s.f.Close() // read-only teardown; nothing actionable on error
	}
	d.segs = make(map[int]*segment)
	d.active = nil
}

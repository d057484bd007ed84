package storage

import (
	"sort"
	"time"

	"corec/internal/scrub"
)

// utilityLocked scores an L1-resident entry for eviction: the old
// internal/tiering utility-density policy — access frequency times the
// read cost a faster tier saves, per byte — with a recency decay so stale
// heat fades. Lowest score spills first. Caller holds t.mu.
func (t *Tiered) utilityLocked(e *entry) float64 {
	age := float64(t.clock - e.last)
	eff := e.freq / (1 + age/1024)
	return eff / float64(e.size+1)
}

// maybeSpill demotes the lowest-utility-density resident entries until L1
// is back under budget. Entries with a still-valid backing record flip
// tiers instantly (no I/O); dirty entries go to the async spill pool
// through the bounded queue. block selects backpressure semantics: the
// foreground write path stalls on a full queue, while worker-context
// callers never do (a worker blocking on the queue it drains would wedge
// the pool) — their dropped victims are simply retried on the next pass.
func (t *Tiered) maybeSpill(block bool) {
	if t.disk == nil || t.cfg.MemBytes <= 0 {
		return
	}
	var jobs []string
	t.mu.Lock()
	over := t.memBytes - t.cfg.MemBytes
	if over > 0 {
		type cand struct {
			key   string
			e     *entry
			score float64
		}
		cands := make([]cand, 0, 32)
		for k, e := range t.entries {
			if e.tier != TierMem || e.busy || e.deleted {
				continue
			}
			if e.prefetched && t.clock-e.last < 4096 {
				// Freshly staged by the prefetcher and not yet consumed:
				// evicting it now would defeat the pipeline. The staging
				// volume is bounded by PrefetchDepth, and the exemption
				// lapses once the entry ages without its hit.
				continue
			}
			cands = append(cands, cand{k, e, t.utilityLocked(e)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score < cands[j].score
			}
			return cands[i].key < cands[j].key
		})
		for _, c := range cands {
			if over <= 0 {
				break
			}
			if c.e.clean != tierNone {
				// The backing record is still valid: eviction is free.
				c.e.tier = c.e.clean
				c.e.clean = tierNone
				c.e.data = nil
				t.memBytes -= c.e.size
				over -= c.e.size
				t.ctEvictions.Add(1)
				continue
			}
			c.e.busy = true
			jobs = append(jobs, c.key)
			over -= c.e.size
		}
	}
	t.mu.Unlock()
	for _, k := range jobs {
		t.enqueue(job{kind: jobSpill, key: k}, block)
	}
}

// enqueue submits background work. block selects backpressure semantics:
// spills must eventually land (memory is over budget), so their callers
// stall on a full queue; uploads, compactions and prefetches are advisory
// and drop instead.
func (t *Tiered) enqueue(j job, block bool) {
	t.jobStart()
	select {
	case t.workCh <- j:
		return
	default:
	}
	if !block {
		t.abandonJob(j)
		return
	}
	t.ctStalls.Add(1)
	select {
	case t.workCh <- j:
	case <-t.stop:
		t.abandonJob(j)
	}
}

func (t *Tiered) abandonJob(j job) {
	if j.key != "" {
		t.mu.Lock()
		if e := t.entries[j.key]; e != nil {
			e.busy = false
		}
		t.mu.Unlock()
	}
	if j.kind == jobCompact {
		t.compacting.Store(false)
	}
	t.jobDone()
}

func (t *Tiered) worker() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case j := <-t.workCh:
			switch j.kind {
			case jobSpill:
				t.spillOne(j.key)
			case jobUpload:
				t.uploadOne(j.key)
			case jobCompact:
				t.compactOne(j.seg)
				t.compacting.Store(false)
			}
			t.jobDone()
		}
	}
}

// spillOne writes one dirty resident entry to the disk tier and flips it
// to TierDisk. If the entry changed while the record was being written,
// the stale record is killed (the busy gate makes this safe — see
// settleStale).
func (t *Tiered) spillOne(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.deleted || e.tier != TierMem {
		t.mu.Unlock()
		t.settleStale(key, nil, false)
		return
	}
	data, gen, epoch := e.data, e.gen, e.epoch
	t.mu.Unlock()
	loc, err := t.disk.append(recData, key, epoch, data)
	if err != nil {
		t.ctDiskErrors.Add(1)
		t.mu.Lock()
		if e := t.entries[key]; e != nil {
			e.busy = false
		}
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	e = t.entries[key]
	if e == nil || e.gen != gen || e.deleted {
		t.mu.Unlock()
		t.settleStale(key, []recordLoc{loc}, false)
		return
	}
	e.tier = TierDisk
	e.clean = tierNone
	e.loc = loc
	e.data = nil
	e.busy = false
	t.memBytes -= e.size
	t.mu.Unlock()
	t.ctSpills.Add(1)
	t.ctEvictions.Add(1)
	t.maybeUpload()
}

// maybeUpload pushes disk entries to the remote tier when the disk tier is
// over its live-byte budget (coldest first) or when entries have sat idle
// past RemoteAge.
func (t *Tiered) maybeUpload() {
	if t.remote == nil || t.disk == nil {
		return
	}
	live, _ := t.disk.bytes()
	var ageCut int64
	if t.cfg.RemoteAge > 0 {
		ageCut = time.Now().UnixNano() - t.cfg.RemoteAge.Nanoseconds()
	}
	var overBytes int64
	if t.cfg.DiskBytes > 0 && live > t.cfg.DiskBytes {
		overBytes = live - t.cfg.DiskBytes
	}
	if overBytes <= 0 && ageCut == 0 {
		return
	}
	var jobs []string
	t.mu.Lock()
	type cand struct {
		key   string
		e     *entry
		lastT int64
	}
	cands := make([]cand, 0, 32)
	for k, e := range t.entries {
		if e.tier != TierDisk || e.busy || e.deleted || e.queued || t.remoteDeletes[k] > 0 {
			continue
		}
		cands = append(cands, cand{k, e, e.lastT})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lastT != cands[j].lastT {
			return cands[i].lastT < cands[j].lastT
		}
		return cands[i].key < cands[j].key
	})
	for _, c := range cands {
		switch {
		case overBytes > 0:
			overBytes -= c.e.loc.rlen
		case ageCut > 0 && c.lastT <= ageCut:
		default:
			// Sorted oldest-first: nothing younger qualifies either.
			c.e = nil
		}
		if c.e == nil {
			break
		}
		c.e.busy = true
		jobs = append(jobs, c.key)
	}
	t.mu.Unlock()
	for _, k := range jobs {
		t.enqueue(job{kind: jobUpload, key: k}, false)
	}
}

// uploadOne moves one disk entry to the remote store: read + revalidate
// the record, pay the modelled upload, append the manifest, retire the
// data record. A remote fault leaves the entry on disk for a later retry.
func (t *Tiered) uploadOne(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.deleted || e.tier != TierDisk {
		t.mu.Unlock()
		t.settleStale(key, nil, false)
		return
	}
	loc, gen, epoch := e.loc, e.gen, e.epoch
	t.mu.Unlock()
	data, _, err := t.disk.read(loc)
	if err != nil {
		if err == errBadPayload || err == errBadHeader {
			t.quarantine(key, gen, loc)
			t.settleStale(key, nil, false)
			return
		}
		// errSegGone (compaction) or I/O: release and retry later.
		if err != errSegGone {
			t.ctDiskErrors.Add(1)
		}
		t.clearBusy(key)
		return
	}
	if err := t.remote.Put(t.ns+key, data); err != nil {
		t.ctRemoteFaults.Add(1)
		t.clearBusy(key)
		return
	}
	sum := scrub.Checksum(data)
	mloc, err := t.disk.append(recRemote, key, epoch, encodeManifest(sum, int64(len(data))))
	if err != nil {
		t.ctDiskErrors.Add(1)
		t.clearBusy(key)
		return
	}
	t.mu.Lock()
	e = t.entries[key]
	if e == nil || e.gen != gen || e.deleted {
		t.mu.Unlock()
		t.settleStale(key, []recordLoc{loc, mloc}, true)
		return
	}
	oldLoc := e.loc
	e.tier = TierRemote
	e.loc = mloc
	e.sum = sum
	e.busy = false
	t.mu.Unlock()
	// The manifest supersedes the data record by scan order; no tombstone.
	t.disk.markDead(oldLoc)
	t.ctUploads.Add(1)
}

func (t *Tiered) clearBusy(key string) {
	t.mu.Lock()
	if e := t.entries[key]; e != nil {
		e.busy = false
	}
	t.mu.Unlock()
}

// maintenance periodically re-evaluates the age-driven upload policy and
// segment compaction, independent of foreground traffic.
func (t *Tiered) maintenance() {
	defer t.wg.Done()
	interval := 25 * time.Millisecond
	if t.cfg.RemoteAge > 0 && t.cfg.RemoteAge/4 < interval {
		interval = t.cfg.RemoteAge / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.maybeUpload()
			if seg := t.disk.compactCandidate(t.cfg.CompactFrac); seg >= 0 {
				if t.compacting.CompareAndSwap(false, true) {
					t.enqueue(job{kind: jobCompact, seg: seg}, false)
				}
			}
		}
	}
}

// compactOne rewrites a retired segment's live records and the tombstones
// that still shadow something into the active segment, and drops the file.
// Entries are re-pointed only if nothing moved them meanwhile (gen + loc
// equality); concurrent readers of the old segment see errSegGone after
// the drop and re-resolve.
func (t *Tiered) compactOne(segID int) {
	if !t.carryTombstones(segID) {
		return // keep the segment; a later pass retries
	}
	type item struct {
		key   string
		gen   uint64
		loc   recordLoc
		typ   byte
		epoch int64
	}
	var items []item
	t.mu.Lock()
	for k, e := range t.entries {
		if e.deleted || e.loc.seg != segID {
			continue
		}
		var typ byte
		switch {
		case e.tier == TierDisk || (e.tier == TierMem && e.clean == TierDisk):
			typ = recData
		case e.tier == TierRemote || (e.tier == TierMem && e.clean == TierRemote):
			typ = recRemote
		default:
			continue
		}
		items = append(items, item{k, e.gen, e.loc, typ, e.epoch})
	}
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].loc.off < items[j].loc.off })
	for _, it := range items {
		payload, _, err := t.disk.read(it.loc)
		if err != nil {
			if err == errBadPayload || err == errBadHeader {
				t.quarantine(it.key, it.gen, it.loc)
			}
			continue
		}
		newLoc, err := t.disk.append(it.typ, it.key, it.epoch, payload)
		if err != nil {
			t.ctDiskErrors.Add(1)
			return // keep the old segment; nothing is lost
		}
		t.mu.Lock()
		e := t.entries[it.key]
		if e != nil && e.gen == it.gen && e.loc == it.loc {
			e.loc = newLoc
			t.mu.Unlock()
		} else {
			t.mu.Unlock()
			t.disk.markDead(newLoc)
		}
	}
	t.disk.dropSegment(segID)
	t.ctCompactions.Add(1)
}

// carryTombstones re-appends the tombstones of segment segID that the
// restart scan still needs, reporting false when the segment must stay for
// now. A tombstone shadows only records in older segments, so none is
// carried once no older segment remains. Nor is one carried for a key
// whose entry has its own on-disk record: that record was written after
// the tombstone and supersedes the older ones by itself, while a tombstone
// appended behind it would kill it. A key owned by a background job may be
// about to get such a record, so compaction waits for the job to settle.
//
// The appends are the one disk write made under t.mu: holding it keeps a
// spill from claiming a carried key and appending its record ahead of the
// tombstone. Tombstones are header-sized and compaction is rare.
func (t *Tiered) carryTombstones(segID int) bool {
	keys, err := t.disk.tombstones(segID)
	if err != nil {
		t.ctDiskErrors.Add(1)
		return false
	}
	if len(keys) == 0 || !t.disk.hasOlder(segID) {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	carry := keys[:0]
	for _, k := range keys {
		e := t.entries[k]
		switch {
		case e == nil:
			carry = append(carry, k)
		case e.busy:
			return false
		case e.tier == TierMem && e.clean == tierNone:
			carry = append(carry, k)
		}
	}
	for _, k := range carry {
		if _, err := t.disk.append(recDead, k, -1, nil); err != nil {
			t.ctDiskErrors.Add(1)
			return false
		}
	}
	return true
}

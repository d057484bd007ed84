package storage

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corec/internal/scrub"
)

// Engine is the storage-engine contract the staging server writes and
// reads through. Tiered is the production implementation; the interface
// exists so benches and future engines (e.g. a pure-mmap tier) can swap in.
type Engine interface {
	Put(key string, data []byte)
	Get(key string) ([]byte, bool)
	Delete(key string)
	Stats() Stats
}

// Config tunes one server's tiered storage engine. The zero value is a
// memory-only engine with unlimited capacity — exactly the pre-tiering
// behaviour — so existing deployments are unaffected until Dir is set.
type Config struct {
	// MemBytes is the L1 budget. When resident bytes exceed it the spiller
	// demotes the lowest-utility-density entries to disk. <= 0 disables
	// spilling (memory is unbounded).
	MemBytes int64
	// Dir is the L2 segment directory. Empty disables the disk and remote
	// tiers entirely.
	Dir string
	// DiskBytes is the L2 live-byte budget; exceeding it uploads the
	// oldest disk entries to the remote tier. <= 0 disables pressure-driven
	// uploads.
	DiskBytes int64
	// SegmentBytes rolls the active segment past this size. Default 1 MiB.
	SegmentBytes int64
	// CompactFrac is the dead-byte fraction beyond which a retired segment
	// is compacted. Default 0.5.
	CompactFrac float64
	// SpillWorkers is the async uploader pool size. Default 2.
	SpillWorkers int
	// SpillQueue bounds the background work queue; writers stall (bounded
	// backpressure) once it fills. Default 128.
	SpillQueue int
	// RemoteAge uploads disk entries idle for at least this long to the
	// remote tier regardless of pressure. 0 disables age-driven uploads.
	RemoteAge time.Duration
	// Prefetch enables the next-time-step prefetch pipeline.
	Prefetch bool
	// PrefetchDepth is how many upcoming cold keys one sequential-read
	// observation stages. Default 8.
	PrefetchDepth int
	// PrefetchMBps paces prefetch reads (token bucket), so staging ahead
	// never starves foreground I/O. Default 64.
	PrefetchMBps float64
	// Remote is the L3 model. The cluster turns it into one shared
	// RemoteStore for all servers; nil disables the remote tier.
	Remote *RemoteConfig
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.CompactFrac <= 0 {
		c.CompactFrac = 0.5
	}
	if c.SpillWorkers <= 0 {
		c.SpillWorkers = 2
	}
	if c.SpillQueue <= 0 {
		c.SpillQueue = 128
	}
	if c.PrefetchDepth <= 0 {
		c.PrefetchDepth = 8
	}
	if c.PrefetchMBps <= 0 {
		c.PrefetchMBps = 64
	}
	return c
}

// Stats is one engine's gauge and counter snapshot.
type Stats struct {
	MemObjects    int
	DiskObjects   int
	RemoteObjects int
	MemBytes      int64
	DiskLiveBytes int64
	DiskDeadBytes int64
	RemoteBytes   int64

	Spills    int64 // records written by L1→L2 demotion
	Evictions int64 // all L1 demotions, including clean no-I/O flips
	Uploads   int64 // L2→L3 promotions
	ColdReads int64 // foreground gets served below L1
	DiskReads int64
	RemoteReads int64

	PrefetchIssued  int64 // cold keys staged into L1 ahead of access
	PrefetchHits    int64 // foreground gets that landed on a staged key
	PrefetchDropped int64 // prefetch candidates dropped to a full queue

	BackpressureStalls int64 // writer stalls on the bounded spill queue
	Compactions        int64
	DiskErrors         int64
	RemoteFaults       int64

	// Open-time disk-scan results plus read-time quarantines.
	RestoredRecords    int64
	QuarantinedRecords int64
	TruncatedTails     int64
}

const tierNone Tier = -1

type entry struct {
	data  []byte
	size  int64
	tier  Tier
	clean Tier // while TierMem: tier holding a still-valid backing record
	loc   recordLoc
	sum   uint64 // remote manifest checksum (TierRemote entries)
	gen   uint64
	epoch int64
	seq   int
	freq  float64
	last  int64 // engine logical clock of last access
	lastT int64 // unix nanos of last access (drives the RemoteAge policy)

	busy       bool // a background job owns this entry
	queued     bool // scheduled for prefetch
	deleted    bool // delete deferred until the owning job settles
	prefetched bool // resident because the prefetcher staged it
}

type jobKind int

const (
	jobSpill jobKind = iota
	jobUpload
	jobCompact
)

type job struct {
	kind jobKind
	key  string
	seg  int
}

// Tiered is the production storage engine. All index state lives under mu;
// disk and remote I/O (and their modelled delays) always happen outside it.
type Tiered struct {
	cfg    Config
	remote *RemoteStore
	ns     string
	disk   *diskTier

	mu       sync.Mutex
	entries  map[string]*entry
	epochs   map[int64][]string // arrival-ordered keys per time-step tag
	memBytes int64
	clock    int64

	// remoteDeletes counts each key's remote deletes that were decided under
	// mu but not yet issued. Every upload of a key reuses its remote name,
	// so no upload may start while one is pending: the late delete would
	// remove the new copy and strand its manifest.
	remoteDeletes map[string]int

	// Sequential-read streak state for the prefetcher.
	streakEpoch int64
	streakSeq   int
	streakRun   int

	workCh chan job
	prefCh chan string
	tb     *tokenBucket
	stop   chan struct{}
	wg     sync.WaitGroup

	idleMu   sync.Mutex
	idleCond *sync.Cond
	inflight int

	compacting atomic.Bool
	closeOnce  sync.Once

	restore RestoreReport

	ctSpills, ctEvictions, ctUploads       atomic.Int64
	ctColdReads, ctDiskReads, ctRemoteReads atomic.Int64
	ctPrefIssued, ctPrefHits, ctPrefDropped atomic.Int64
	ctStalls, ctCompactions                 atomic.Int64
	ctQuarantined, ctDiskErrors, ctRemoteFaults atomic.Int64
}

var _ Engine = (*Tiered)(nil)

// Open builds an engine from cfg. A non-empty Dir opens (and revalidates)
// the disk tier: every segment record's checksums are checked, torn tails are
// truncated, rotten records quarantined, and the offset index rebuilt from
// the scan. remote is the cluster-shared L3 store (nil disables L3);
// namespace prefixes this engine's remote keys so servers never collide.
func Open(cfg Config, remote *RemoteStore, namespace string) (*Tiered, error) {
	cfg = cfg.withDefaults()
	t := &Tiered{
		cfg:           cfg,
		remote:        remote,
		ns:            namespace,
		entries:       make(map[string]*entry),
		epochs:        make(map[int64][]string),
		remoteDeletes: make(map[string]int),
		stop:          make(chan struct{}),
		streakEpoch:   -1,
	}
	t.idleCond = sync.NewCond(&t.idleMu)
	if cfg.Dir == "" {
		// Memory-only engine: no disk means nowhere to put remote
		// manifests either, so L3 is off and no workers run.
		t.remote = nil
		return t, nil
	}
	disk, idx, rep, err := openDisk(cfg.Dir, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	t.restore = rep
	t.adoptRestored(idx)

	t.workCh = make(chan job, cfg.SpillQueue)
	for i := 0; i < cfg.SpillWorkers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	if cfg.Prefetch {
		t.prefCh = make(chan string, cfg.SpillQueue)
		t.tb = newTokenBucket(cfg.PrefetchMBps * (1 << 20))
		t.wg.Add(1)
		go t.prefetchWorker()
	}
	t.wg.Add(1)
	go t.maintenance()
	return t, nil
}

// adoptRestored merges the open-time scan's index into the entry map,
// re-registering epoch tags in on-disk order so the prefetcher keeps
// working across a restart.
func (t *Tiered) adoptRestored(idx map[string]restoredEntry) {
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := idx[keys[i]], idx[keys[j]]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.loc.seg != b.loc.seg {
			return a.loc.seg < b.loc.seg
		}
		if a.loc.off != b.loc.off {
			return a.loc.off < b.loc.off
		}
		return keys[i] < keys[j]
	})
	now := time.Now().UnixNano()
	for _, k := range keys {
		re := idx[k]
		if re.tier == TierRemote && t.remote == nil {
			// Manifest without a remote store: unreachable, drop it.
			continue
		}
		e := &entry{
			size:  re.size,
			tier:  re.tier,
			clean: tierNone,
			loc:   re.loc,
			sum:   re.sum,
			epoch: re.epoch,
			seq:   -1,
			lastT: now,
		}
		if re.epoch >= 0 {
			log := t.epochs[re.epoch]
			e.seq = len(log)
			t.epochs[re.epoch] = append(log, k)
		}
		t.entries[k] = e
	}
}

// Put stages an untagged payload.
//
// Ownership: Put hands data to the engine, which keeps the slice itself
// (no copy) and later reads it from background spill and upload workers,
// checksumming and writing whatever bytes it holds then. The caller must
// not write data after Put returns; a reused buffer corrupts the staged
// value, and its disk record reads back as missing. The server follows the
// same hand-off with a request's Data.
func (t *Tiered) Put(key string, data []byte) { t.PutTagged(key, data, -1) }

// PutTagged stages a payload carrying its time-step tag, which drives
// sequential-step detection in the prefetcher. epoch < 0 means untagged.
// It takes ownership of data exactly as Put does.
func (t *Tiered) PutTagged(key string, data []byte, epoch int64) {
	size := int64(len(data))
	t.mu.Lock()
	t.clock++
	var locs []recordLoc
	var tomb, remoteDel bool
	e := t.entries[key]
	if e != nil {
		if e.busy {
			// A background job owns the entry: record state only; the job
			// settles the superseded on-disk records when it commits.
			if e.tier == TierMem {
				t.memBytes -= e.size
			}
		} else {
			locs, tomb, remoteDel = t.retireLocked(key, e)
		}
		e.gen++
		e.deleted = false
	} else {
		e = &entry{}
		t.entries[key] = e
	}
	e.data, e.size = data, size
	e.tier, e.clean = TierMem, tierNone
	e.queued, e.prefetched = false, false
	e.epoch, e.seq = epoch, -1
	if epoch >= 0 {
		log := t.epochs[epoch]
		e.seq = len(log)
		t.epochs[epoch] = append(log, key)
	}
	e.freq++
	e.last, e.lastT = t.clock, time.Now().UnixNano()
	t.memBytes += size
	t.mu.Unlock()
	t.settleRetired(key, locs, tomb, remoteDel)
	t.maybeSpill(true)
}

// retireLocked detaches e's current placement, returning the on-disk
// records to mark dead, whether a tombstone must be appended, and whether
// the remote copy must be deleted. Caller holds t.mu and is not a
// background job (busy entries defer retirement to their owning job).
func (t *Tiered) retireLocked(key string, e *entry) (locs []recordLoc, tomb, remoteDel bool) {
	switch e.tier {
	case TierMem:
		t.memBytes -= e.size
		if e.clean != tierNone {
			locs = append(locs, e.loc)
			tomb = true
			remoteDel = e.clean == TierRemote
		}
	case TierDisk:
		locs = append(locs, e.loc)
		tomb = true
	case TierRemote:
		locs = append(locs, e.loc)
		tomb = true
		remoteDel = true
	}
	if remoteDel && t.remote != nil {
		t.remoteDeletes[key]++ // settleRetired issues it
	}
	return locs, tomb, remoteDel
}

// settleRetired performs the I/O half of retirement outside t.mu.
func (t *Tiered) settleRetired(key string, locs []recordLoc, tomb, remoteDel bool) {
	if t.disk != nil {
		for _, l := range locs {
			t.disk.markDead(l)
		}
		if tomb {
			t.appendTombstone(key)
		}
	}
	if remoteDel && t.remote != nil {
		t.remote.Delete(t.ns + key)
		t.mu.Lock()
		t.remoteDeletes[key]--
		if t.remoteDeletes[key] <= 0 {
			delete(t.remoteDeletes, key)
		}
		t.mu.Unlock()
	}
}

func (t *Tiered) appendTombstone(key string) {
	if t.disk == nil {
		return
	}
	if _, err := t.disk.append(recDead, key, -1, nil); err != nil {
		t.ctDiskErrors.Add(1)
	}
}

// Delete drops a key from every tier. Crash safety: the tombstone record
// makes the delete durable, so a restart cannot resurrect the key.
func (t *Tiered) Delete(key string) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		t.mu.Unlock()
		return
	}
	if e.busy {
		// Deferred: the owning job observes deleted, appends the
		// tombstone, and removes the entry when it settles.
		if e.tier == TierMem {
			t.memBytes -= e.size
			e.data = nil
		}
		e.deleted = true
		e.gen++
		t.mu.Unlock()
		return
	}
	locs, tomb, remoteDel := t.retireLocked(key, e)
	delete(t.entries, key)
	t.mu.Unlock()
	t.settleRetired(key, locs, tomb, remoteDel)
}

// Get returns a key's payload, promoting cold entries into L1 and feeding
// the prefetcher's sequential-read detector.
func (t *Tiered) Get(key string) ([]byte, bool) { return t.fetch(key, true) }

// Peek returns a key's payload without touching heat, promotion or
// prefetch state — the read the scrubber and checkpointer use, so
// background verification never perturbs placement.
func (t *Tiered) Peek(key string) ([]byte, bool) { return t.fetch(key, false) }

func (t *Tiered) fetch(key string, touch bool) ([]byte, bool) {
	for attempt := 0; attempt < 3; attempt++ {
		t.mu.Lock()
		e := t.entries[key]
		if e == nil || e.deleted {
			t.mu.Unlock()
			return nil, false
		}
		if touch {
			t.clock++
			e.freq++
			e.last, e.lastT = t.clock, time.Now().UnixNano()
		}
		tier, loc, gen, sum := e.tier, e.loc, e.gen, e.sum
		ep, seq := e.epoch, e.seq
		if tier == TierMem {
			data := e.data
			if touch && e.prefetched {
				e.prefetched = false
				t.ctPrefHits.Add(1)
			}
			t.mu.Unlock()
			if touch {
				t.observeRead(ep, seq)
			}
			return data, true
		}
		t.mu.Unlock()
		if touch {
			t.ctColdReads.Add(1)
		}
		var data []byte
		var err error
		switch tier {
		case TierDisk:
			data, _, err = t.disk.read(loc)
			if err == errSegGone {
				continue // compaction moved the record; re-resolve
			}
			if err == errBadPayload || err == errBadHeader {
				t.quarantine(key, gen, loc)
				return nil, false
			}
			if err != nil {
				t.ctDiskErrors.Add(1)
				return nil, false
			}
			t.ctDiskReads.Add(1)
		case TierRemote:
			data, err = t.remoteFetch(key, gen, loc, sum)
			if err != nil {
				return nil, false
			}
			t.ctRemoteReads.Add(1)
		}
		if touch {
			t.install(key, gen, data, tier, false, false)
			t.observeRead(ep, seq)
		}
		return data, true
	}
	return nil, false
}

// remoteFetch downloads and verifies a remote object against its manifest
// checksum; a mismatch means the remote copy rotted and is quarantined.
func (t *Tiered) remoteFetch(key string, gen uint64, manifest recordLoc, sum uint64) ([]byte, error) {
	data, err := t.remote.Get(t.ns + key)
	if err != nil {
		t.ctRemoteFaults.Add(1)
		return nil, err
	}
	if scrub.Checksum(data) != sum {
		t.quarantine(key, gen, manifest)
		return nil, errBadPayload
	}
	return data, nil
}

// quarantine drops an entry whose stored bytes failed verification. The
// server-level scrubber restores the shard from its stripe afterwards.
func (t *Tiered) quarantine(key string, gen uint64, loc recordLoc) {
	t.ctQuarantined.Add(1)
	t.mu.Lock()
	e := t.entries[key]
	match := e != nil && e.gen == gen
	if match {
		if e.tier == TierMem {
			t.memBytes -= e.size
		}
		delete(t.entries, key)
	}
	t.mu.Unlock()
	if match && t.disk != nil {
		t.disk.markDead(loc)
	}
}

// install promotes fetched bytes into L1, reporting whether it committed.
// Owned jobs (the prefetcher) hold the entry's busy flag and must settle
// superseded records themselves on a false return; unowned promotion (a
// foreground get) simply backs off if anything moved.
func (t *Tiered) install(key string, gen uint64, data []byte, from Tier, prefetched, owned bool) bool {
	t.mu.Lock()
	e := t.entries[key]
	stale := e == nil || e.gen != gen || e.deleted
	if stale || (!owned && (e.busy || e.tier != from)) {
		t.mu.Unlock()
		return false
	}
	e.data = data
	e.tier = TierMem
	e.clean = from
	e.prefetched = prefetched
	e.busy, e.queued = false, false
	if prefetched {
		// Staged ahead of its read: refresh heat so the spiller does not
		// immediately evict what the prefetcher just promoted.
		e.freq++
		e.last = t.clock
	}
	t.memBytes += e.size
	t.mu.Unlock()
	if prefetched {
		t.ctPrefIssued.Add(1)
	}
	t.maybeSpill(!owned)
	return true
}

// settleStale is a background job's abort path: the entry changed (or was
// deleted) while the job held it. The job kills the records it knows about,
// appends the key's tombstone, finalizes a deferred delete and releases
// the entry. The busy gate guarantees no newer record for the key was
// appended in between, so the tombstone cannot kill fresh data. For the
// same reason the remote delete is issued before the entry is released:
// once it is, a new upload may reuse the key's remote name.
func (t *Tiered) settleStale(key string, locs []recordLoc, remoteDel bool) {
	if t.disk != nil {
		for _, l := range locs {
			t.disk.markDead(l)
		}
		t.appendTombstone(key)
	}
	if remoteDel && t.remote != nil {
		t.remote.Delete(t.ns + key)
	}
	t.mu.Lock()
	if e := t.entries[key]; e != nil {
		e.busy = false
		if e.deleted {
			delete(t.entries, key)
		}
	}
	t.mu.Unlock()
	t.maybeSpill(false)
}

// Has reports whether the key exists in any tier (no I/O).
func (t *Tiered) Has(key string) bool {
	t.mu.Lock()
	e := t.entries[key]
	ok := e != nil && !e.deleted
	t.mu.Unlock()
	return ok
}

// TierOf reports which tier currently holds the key's bytes.
func (t *Tiered) TierOf(key string) (Tier, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || e.deleted {
		return tierNone, false
	}
	return e.tier, true
}

// Len returns the number of live keys across all tiers.
func (t *Tiered) Len() int {
	t.mu.Lock()
	n := 0
	for _, e := range t.entries {
		if !e.deleted {
			n++
		}
	}
	t.mu.Unlock()
	return n
}

// Keys returns every live key in sorted order.
func (t *Tiered) Keys() []string {
	t.mu.Lock()
	keys := make([]string, 0, len(t.entries))
	for k, e := range t.entries {
		if !e.deleted {
			keys = append(keys, k)
		}
	}
	t.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Size returns a live key's payload size without any I/O.
func (t *Tiered) Size(key string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[key]; e != nil && !e.deleted {
		return e.size, true
	}
	return 0, false
}

// Overwrite replaces a key's stored bytes in place, wherever they live —
// the bit-rot injection hook. The replacement must match the original
// length for disk-resident entries (rot flips bits, it doesn't resize).
// Reports whether the key existed and was rewritten.
func (t *Tiered) Overwrite(key string, data []byte) bool {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil || e.deleted || e.busy {
		t.mu.Unlock()
		return false
	}
	switch e.tier {
	case TierMem:
		var deadLoc *recordLoc
		if e.clean != tierNone {
			// The resident copy diverges from its backing record now;
			// retire the record so a respill rewrites the (rotten) truth.
			l := e.loc
			deadLoc = &l
			e.clean = tierNone
		}
		t.memBytes += int64(len(data)) - e.size
		e.data, e.size = data, int64(len(data))
		e.gen++
		t.mu.Unlock()
		if deadLoc != nil && t.disk != nil {
			t.disk.markDead(*deadLoc)
		}
		return true
	case TierDisk:
		loc := e.loc
		t.mu.Unlock()
		if int64(len(data))+headerSize+int64(len(key)) != loc.rlen {
			return false
		}
		return t.disk.corrupt(loc, len(key), data) == nil
	case TierRemote:
		t.mu.Unlock()
		return t.remote.Corrupt(t.ns+key, data)
	}
	t.mu.Unlock()
	return false
}

// RestoreReport returns what the open-time disk scan found.
func (t *Tiered) RestoreReport() RestoreReport { return t.restore }

// Stats snapshots the engine's gauges and counters.
func (t *Tiered) Stats() Stats {
	var st Stats
	t.mu.Lock()
	for _, e := range t.entries {
		if e.deleted {
			continue
		}
		switch e.tier {
		case TierMem:
			st.MemObjects++
		case TierDisk:
			st.DiskObjects++
		case TierRemote:
			st.RemoteObjects++
			st.RemoteBytes += e.size
		}
	}
	st.MemBytes = t.memBytes
	t.mu.Unlock()
	if t.disk != nil {
		st.DiskLiveBytes, st.DiskDeadBytes = t.disk.bytes()
	}
	st.Spills = t.ctSpills.Load()
	st.Evictions = t.ctEvictions.Load()
	st.Uploads = t.ctUploads.Load()
	st.ColdReads = t.ctColdReads.Load()
	st.DiskReads = t.ctDiskReads.Load()
	st.RemoteReads = t.ctRemoteReads.Load()
	st.PrefetchIssued = t.ctPrefIssued.Load()
	st.PrefetchHits = t.ctPrefHits.Load()
	st.PrefetchDropped = t.ctPrefDropped.Load()
	st.BackpressureStalls = t.ctStalls.Load()
	st.Compactions = t.ctCompactions.Load()
	st.DiskErrors = t.ctDiskErrors.Load()
	st.RemoteFaults = t.ctRemoteFaults.Load()
	st.RestoredRecords = int64(t.restore.Restored)
	st.QuarantinedRecords = int64(t.restore.Quarantined) + t.ctQuarantined.Load()
	st.TruncatedTails = int64(t.restore.TruncatedTails)
	return st
}

func (t *Tiered) jobStart() {
	t.idleMu.Lock()
	t.inflight++
	t.idleMu.Unlock()
}

func (t *Tiered) jobDone() {
	t.idleMu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.idleCond.Broadcast()
	}
	t.idleMu.Unlock()
}

// WaitIdle blocks until no spill, upload, compaction or prefetch work is
// queued or running — the determinism hook tests and benches use.
func (t *Tiered) WaitIdle() {
	t.idleMu.Lock()
	for t.inflight > 0 {
		t.idleCond.Wait()
	}
	t.idleMu.Unlock()
}

// Close stops the background workers and closes the segment files. The
// in-memory tier is discarded — exactly what a server crash does — and the
// disk tier is what the next Open revalidates and re-indexes.
func (t *Tiered) Close() error {
	t.closeOnce.Do(func() {
		close(t.stop)
		t.wg.Wait()
		if t.disk != nil {
			t.disk.close()
		}
	})
	return nil
}

package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// spillAll opens an engine whose memory budget forces every put to disk,
// stages n distinctive payloads, and returns once all are disk-resident.
func spillAll(t *testing.T, dir string, n, size int) {
	t.Helper()
	e, err := Open(Config{Dir: dir, MemBytes: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, size))
	}
	e.WaitIdle()
	if st := e.Stats(); st.MemObjects != 0 || st.DiskObjects != n {
		t.Fatalf("not fully spilled: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestRestartRebuildsIndexFromScan(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemBytes: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.PutTagged(fmt.Sprintf("obj-%02d", i), payload(i, 300), 7)
	}
	e.WaitIdle()
	// Overwrite two keys and delete two others; both must survive the
	// restart exactly (tombstones honored, latest version wins).
	e.Put("obj-03", payload(33, 300))
	e.Delete("obj-04")
	e.Delete("obj-05")
	e.WaitIdle()
	if st := e.Stats(); st.MemObjects != 0 {
		// MemBytes=1 forces everything — including the overwrite — down.
		t.Fatalf("unexpected residency: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.Quarantined != 0 || rep.TruncatedTails != 0 {
		t.Fatalf("clean restart reported damage: %+v", rep)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		got, ok := re.Get(key)
		switch {
		case i == 4 || i == 5:
			if ok {
				t.Fatalf("%s resurrected after delete", key)
			}
		case i == 3:
			if !ok || !bytes.Equal(got, payload(33, 300)) {
				t.Fatalf("%s lost its overwrite", key)
			}
		default:
			if !ok || !bytes.Equal(got, payload(i, 300)) {
				t.Fatalf("%s not restored", key)
			}
		}
	}
	// Epoch tags survive the restart for the prefetcher.
	re.mu.Lock()
	epochLen := len(re.epochs[7])
	re.mu.Unlock()
	if epochLen == 0 {
		t.Fatal("epoch log not rebuilt from scan")
	}
}

func TestRestartTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	spillAll(t, dir, n, 300)
	files := segFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no segments")
	}
	// Chop a few bytes off the last segment: the tail record is torn,
	// exactly like a crash mid-append.
	last := files[len(files)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.TruncatedTails != 1 {
		t.Fatalf("truncated tail not detected: %+v", rep)
	}
	if rep.Restored != n-1 {
		t.Fatalf("restored %d, want %d (one torn)", rep.Restored, n-1)
	}
	alive := 0
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); ok {
			if !bytes.Equal(got, payload(i, 300)) {
				t.Fatalf("obj-%02d corrupt after truncation recovery", i)
			}
			alive++
		}
	}
	if alive != n-1 {
		t.Fatalf("alive = %d, want %d", alive, n-1)
	}
}

func TestRestartGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	spillAll(t, dir, n, 300)
	files := segFiles(t, dir)
	last := files[len(files)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not a record header at all")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.TruncatedTails != 1 || rep.Restored != n {
		t.Fatalf("garbage tail handling wrong: %+v", rep)
	}
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("obj-%02d lost to garbage tail", i)
		}
	}
}

func TestRestartFlippedBitQuarantined(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	spillAll(t, dir, n, 300)
	// Flip one bit inside obj-02's payload: its byte pattern (0xA2 x 300)
	// appears in exactly one record.
	marker := bytes.Repeat([]byte{0xA2}, 100)
	var hit string
	var pos int
	for _, f := range segFiles(t, dir) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, marker); i >= 0 {
			hit, pos = f, i+50
			break
		}
	}
	if hit == "" {
		t.Fatal("payload pattern not found")
	}
	f, err := os.OpenFile(hit, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xA2 ^ 0x10}, int64(pos)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	rep := re.RestoreReport()
	if rep.Quarantined != 1 {
		t.Fatalf("flipped bit not quarantined: %+v", rep)
	}
	if rep.TruncatedTails != 0 {
		t.Fatalf("rot misread as torn tail: %+v", rep)
	}
	if rep.Restored != n-1 {
		t.Fatalf("restored %d, want %d", rep.Restored, n-1)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		got, ok := re.Get(key)
		if i == 2 {
			if ok {
				t.Fatal("quarantined record served")
			}
			continue
		}
		if !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("%s lost alongside quarantine", key)
		}
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{
		Dir:          dir,
		MemBytes:     1,
		SegmentBytes: 2048,
		CompactFrac:  0.4,
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 24
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, 400))
	}
	e.WaitIdle()
	// Kill most keys: retired segments cross the dead-fraction threshold
	// and the maintenance loop compacts them.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			e.Delete(fmt.Sprintf("obj-%02d", i))
		}
	}
	waitFor(t, "compaction", func() bool { return e.Stats().Compactions > 0 })
	e.WaitIdle()
	for i := 0; i < n; i += 4 {
		if got, ok := e.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("obj-%02d lost to compaction", i)
		}
	}
	// Compaction must also shrink the restart surface: reopen and check
	// the survivors again.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	for i := 0; i < n; i += 4 {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("obj-%02d lost after compaction restart", i)
		}
	}
	if re.Len() != n/4 {
		t.Fatalf("Len = %d, want %d", re.Len(), n/4)
	}
}

// TestCompactionCarriesTombstones compacts a segment of tombstones while
// the older segment holding the deleted keys' data stays: a restart must
// not bring the deleted keys back, and a key re-put after its delete must
// come back with its new bytes, whether its new record sits in the
// compacted segment or in a newer one. Compaction is driven by hand, so
// the order is fixed.
func TestCompactionCarriesTombstones(t *testing.T) {
	dir := t.TempDir()
	// A 437-byte data record (31 header + 6 key + 400 payload) rolls a
	// 2048-byte segment after the fifth; automatic compaction is off.
	e, err := Open(Config{Dir: dir, MemBytes: 1, SegmentBytes: 2048, CompactFrac: 2}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	key := func(i int) string { return fmt.Sprintf("obj-%02d", i) }
	for i := 0; i < 5; i++ {
		e.Put(key(i), payload(i, 400))
		e.WaitIdle()
	}
	// Segment 1: tombstones for obj-01..03, obj-01 re-put, then obj-05..08
	// until the segment rolls. Segment 2: obj-02 re-put.
	for i := 1; i <= 3; i++ {
		e.Delete(key(i))
	}
	e.Put(key(1), payload(50, 400))
	e.WaitIdle()
	for i := 5; i < 9; i++ {
		e.Put(key(i), payload(i, 400))
		e.WaitIdle()
	}
	e.Put(key(2), payload(60, 400))
	e.WaitIdle()
	e.disk.mu.Lock()
	_, has0 := e.disk.segs[0]
	_, has1 := e.disk.segs[1]
	retired := e.disk.active != nil && e.disk.active.id == 2
	e.disk.mu.Unlock()
	if !has0 || !has1 || !retired {
		t.Fatalf("segment layout: seg0 %v, seg1 %v, seg1 retired %v", has0, has1, retired)
	}
	tombs, err := e.disk.tombstones(1)
	if err != nil || len(tombs) != 3 {
		t.Fatalf("segment 1 tombstones = %v, %v; want obj-01..03", tombs, err)
	}

	e.compactOne(1)
	if e.Stats().Compactions != 1 {
		t.Fatal("segment 1 was not compacted")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: dir}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	want := map[string][]byte{key(1): payload(50, 400), key(2): payload(60, 400)}
	for _, i := range []int{0, 4, 5, 6, 7, 8} {
		want[key(i)] = payload(i, 400)
	}
	for k, w := range want {
		if got, ok := re.Get(k); !ok || !bytes.Equal(got, w) {
			t.Fatalf("%s wrong after compaction restart (present %v)", k, ok)
		}
	}
	if re.Has(key(3)) {
		t.Fatal("deleted obj-03 came back after compaction restart")
	}
	if re.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", re.Len(), len(want))
	}
}

func TestRemoteManifestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	remote := NewRemoteStore(RemoteConfig{Seed: 5})
	e, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 1}, remote, "s9/")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("obj-%02d", i), payload(i, 300))
	}
	waitFor(t, "uploads", func() bool { return e.Stats().Uploads >= n })
	e.WaitIdle()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart against the same (surviving) remote store: manifests must
	// re-reach every uploaded object.
	re, err := Open(Config{Dir: dir, MemBytes: 1, DiskBytes: 1}, remote, "s9/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if st := re.Stats(); st.RemoteObjects != n {
		t.Fatalf("manifests not restored: %+v", st)
	}
	for i := 0; i < n; i++ {
		if got, ok := re.Get(fmt.Sprintf("obj-%02d", i)); !ok || !bytes.Equal(got, payload(i, 300)) {
			t.Fatalf("obj-%02d unreachable through restored manifest", i)
		}
	}
}

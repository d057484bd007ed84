package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func payload(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(0xA0 + i)
	}
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMemOnlyEngineBasics(t *testing.T) {
	e, err := Open(Config{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("a", payload(1, 100))
	e.Put("b", payload(2, 200))
	if got, ok := e.Get("a"); !ok || !bytes.Equal(got, payload(1, 100)) {
		t.Fatalf("get a: ok=%v", ok)
	}
	if !e.Has("b") || e.Has("c") {
		t.Fatal("Has wrong")
	}
	if n := e.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	keys := e.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	e.Delete("a")
	if _, ok := e.Get("a"); ok {
		t.Fatal("a survived delete")
	}
	st := e.Stats()
	if st.MemObjects != 1 || st.MemBytes != 200 || st.Spills != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSpillUnderMemoryPressure(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 1024}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 12
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatalf("expected spills, got %+v", st)
	}
	if st.MemBytes > 1024 {
		t.Fatalf("memory over budget after spill: %d", st.MemBytes)
	}
	if st.MemObjects+st.DiskObjects != n {
		t.Fatalf("lost objects: %+v", st)
	}
	// Every key still readable, byte-correct, regardless of tier.
	for i := 0; i < n; i++ {
		got, ok := e.Get(fmt.Sprintf("k%02d", i))
		if !ok || !bytes.Equal(got, payload(i, 512)) {
			t.Fatalf("key %d: ok=%v", i, ok)
		}
	}
}

func TestUtilityDensityVictimSelection(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 2048}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("hot", payload(1, 900))
	e.Put("cold", payload(2, 900))
	// Heat "hot" well past "cold".
	for i := 0; i < 50; i++ {
		if _, ok := e.Get("hot"); !ok {
			t.Fatal("hot missing")
		}
	}
	// Pushing a third object over budget must evict the lowest utility
	// density: "cold".
	e.Put("new", payload(3, 900))
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatalf("no spill happened: %+v", st)
	}
	// "hot" must still be resident; verify via Peek-side stats.
	e.mu.Lock()
	hotTier := e.entries["hot"].tier
	coldTier := e.entries["cold"].tier
	e.mu.Unlock()
	if hotTier != TierMem {
		t.Fatalf("hot was evicted (tier %v)", hotTier)
	}
	if coldTier != TierDisk {
		t.Fatalf("cold was not evicted (tier %v)", coldTier)
	}
}

func TestCleanEvictionSkipsRewrite(t *testing.T) {
	// MemBytes below one object size: every entry ends up disk-backed.
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 256}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 4; i++ {
		e.Put(fmt.Sprintf("k%d", i), payload(i, 512))
	}
	e.WaitIdle()
	st0 := e.Stats()
	if st0.Spills != 4 || st0.MemObjects != 0 {
		t.Fatalf("expected everything spilled: %+v", st0)
	}
	// Promoting a cold key leaves its backing record valid, so the
	// follow-up eviction must be a free flip, not another record write.
	if got, ok := e.Get("k0"); !ok || !bytes.Equal(got, payload(0, 512)) {
		t.Fatal("promote failed")
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills != st0.Spills {
		t.Fatalf("clean eviction rewrote a record: %+v", st)
	}
	if st.Evictions <= st0.Evictions {
		t.Fatalf("no eviction after promotion: %+v", st)
	}
}

func TestRemoteTierUploadAndRead(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{Seed: 1})
	e, err := Open(Config{
		Dir:       t.TempDir(),
		MemBytes:  1024,
		DiskBytes: 2048,
	}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	const n = 16
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	waitFor(t, "uploads", func() bool { return e.Stats().Uploads > 0 })
	e.WaitIdle()
	st := e.Stats()
	if st.RemoteObjects == 0 {
		t.Fatalf("no remote objects: %+v", st)
	}
	if remote.Stats().Objects == 0 {
		t.Fatal("remote store empty")
	}
	for i := 0; i < n; i++ {
		got, ok := e.Get(fmt.Sprintf("k%02d", i))
		if !ok || !bytes.Equal(got, payload(i, 512)) {
			t.Fatalf("key %d unreadable after tiering: ok=%v", i, ok)
		}
	}
	if e.Stats().RemoteReads == 0 {
		t.Fatal("no read came from remote")
	}
}

// TestUploadWaitsForPendingRemoteDelete pins the guard that stops the
// chaos test's lost keys. Every upload of a key writes the same remote
// name, so an upload that started while the delete of the key's retired
// remote copy was still pending would be removed by that delete, leaving a
// manifest with nothing behind it.
func TestUploadWaitsForPendingRemoteDelete(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{Seed: 5})
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 1, DiskBytes: 1}, remote, "p/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	// A retired remote copy of "k" whose delete has not been issued yet.
	e.mu.Lock()
	e.remoteDeletes["k"]++
	e.mu.Unlock()
	e.Put("k", payload(1, 400))
	e.WaitIdle()
	if tier, _ := e.TierOf("k"); tier != TierDisk {
		t.Fatalf("k on tier %v while its remote delete is pending, want disk", tier)
	}
	e.settleRetired("k", nil, false, true)
	waitFor(t, "upload after the delete", func() bool {
		tier, _ := e.TierOf("k")
		return tier == TierRemote
	})
	if got, ok := e.Get("k"); !ok || !bytes.Equal(got, payload(1, 400)) {
		t.Fatalf("k unreadable after upload: ok=%v", ok)
	}
}

func TestRemoteFaultLeavesDataOnDisk(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{FailProb: 1, Seed: 7})
	e, err := Open(Config{
		Dir:       t.TempDir(),
		MemBytes:  512,
		DiskBytes: 512,
	}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 6; i++ {
		e.Put(fmt.Sprintf("k%d", i), payload(i, 400))
	}
	waitFor(t, "remote faults", func() bool { return e.Stats().RemoteFaults > 0 })
	e.WaitIdle()
	st := e.Stats()
	if st.Uploads != 0 || st.RemoteObjects != 0 {
		t.Fatalf("upload succeeded despite FailProb=1: %+v", st)
	}
	for i := 0; i < 6; i++ {
		if got, ok := e.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, payload(i, 400)) {
			t.Fatalf("key %d lost after failed uploads", i)
		}
	}
}

func TestOverwriteInjectsRotPerTier(t *testing.T) {
	remote := NewRemoteStore(RemoteConfig{Seed: 3})
	e, err := Open(Config{Dir: t.TempDir(), MemBytes: 1 << 20}, remote, "s1/")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	e.Put("mem", payload(1, 256))
	rotten := payload(1, 256)
	rotten[17] ^= 0x40
	if !e.Overwrite("mem", rotten) {
		t.Fatal("mem overwrite failed")
	}
	got, ok := e.Get("mem")
	if !ok || !bytes.Equal(got, rotten) {
		t.Fatal("mem rot not visible")
	}
	// Disk-resident rot: the record CRC catches it on read and the entry
	// is quarantined.
	e2, err := Open(Config{Dir: t.TempDir(), MemBytes: 256}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e2.Close() }()
	e2.Put("a", payload(2, 300))
	e2.Put("b", payload(3, 300))
	e2.WaitIdle()
	var diskKey string
	for _, k := range []string{"a", "b"} {
		e2.mu.Lock()
		tier := e2.entries[k].tier
		e2.mu.Unlock()
		if tier == TierDisk {
			diskKey = k
			break
		}
	}
	if diskKey == "" {
		t.Fatal("nothing spilled")
	}
	bad := payload(9, 300)
	if !e2.Overwrite(diskKey, bad) {
		t.Fatal("disk overwrite failed")
	}
	if _, ok := e2.Get(diskKey); ok {
		t.Fatal("rotten disk record served")
	}
	if e2.Stats().QuarantinedRecords == 0 {
		t.Fatal("rot not quarantined")
	}
}

func TestBackpressureCountsStalls(t *testing.T) {
	e, err := Open(Config{
		Dir:          t.TempDir(),
		MemBytes:     256,
		SpillWorkers: 1,
		SpillQueue:   1,
	}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	for i := 0; i < 64; i++ {
		e.Put(fmt.Sprintf("k%02d", i), payload(i, 512))
	}
	e.WaitIdle()
	st := e.Stats()
	if st.Spills == 0 {
		t.Fatal("no spills")
	}
	if st.MemObjects+st.DiskObjects != 64 {
		t.Fatalf("lost objects under backpressure: %+v", st)
	}
}

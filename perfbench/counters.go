package main

import (
	"runtime"
	"syscall"
	"time"

	"corec"
	"corec/internal/metrics"
)

// counterSet is a snapshot of the program's cumulative public counters,
// keyed by the names the per-layer metrics use.
type counterSet map[string]float64

// readCounters snapshots the Collector phases and counters and the
// FabricStatus views. Per-server parts (decode caches, storage engines)
// sum over live servers only, so a meter must not span a Kill or Replace.
func readCounters(c *corec.Cluster) counterSet {
	snap := c.Collector().Snapshot()
	fs := c.FabricStatus()
	return counterSet{
		"metadata_ns":   float64(snap.Phase(metrics.Metadata)),
		"transport_ns":  float64(snap.Phase(metrics.Transport)),
		"encode_ns":     float64(snap.Phase(metrics.Encode)),
		"encodes":       float64(snap.PhaseCount[metrics.Encode]),
		"decode_ns":     float64(snap.Phase(metrics.Decode)),
		"classify_ns":   float64(snap.Phase(metrics.Classify)),
		"retries":       float64(snap.Counters[metrics.RetryCount]),
		"faults":        float64(snap.Counters[metrics.FaultCount]),
		"failovers":     float64(fs.Failovers),
		"pool_hits":     float64(fs.Transport.PoolHits),
		"pool_misses":   float64(fs.Transport.PoolMisses),
		"mux_redials":   float64(fs.Transport.MuxRedials),
		"dcache_hits":   float64(fs.Encoding.DecodeCacheHits),
		"dcache_misses": float64(fs.Encoding.DecodeCacheMisses),
		"spills":        float64(fs.Storage.Spills),
		"cold_reads":    float64(fs.Storage.ColdReads),
		"compactions":   float64(fs.Storage.Compactions),
		"stalls":        float64(fs.Storage.BackpressureStalls),
	}
}

// meter sums counter deltas over the segments of a measured window in
// which the set of live servers stays fixed. Each segment carries a label,
// and deltas are also kept per label.
type meter struct {
	c       *corec.Cluster
	label   string
	base    counterSet
	total   counterSet
	byLabel map[string]counterSet
}

func newMeter(c *corec.Cluster) *meter {
	return &meter{c: c, total: counterSet{}, byLabel: map[string]counterSet{}}
}

// start opens a segment under label.
func (m *meter) start(label string) {
	m.label = label
	m.base = readCounters(m.c)
}

// stop closes the open segment and adds its deltas.
func (m *meter) stop() {
	now := readCounters(m.c)
	into := m.byLabel[m.label]
	if into == nil {
		into = counterSet{}
		m.byLabel[m.label] = into
	}
	for k, v := range now {
		d := v - m.base[k]
		m.total[k] += d
		into[k] += d
	}
	m.base = nil
}

// procSample is the process-wide resource use at one instant.
type procSample struct {
	cpu     time.Duration // user + system
	allocs  uint64
	alloc   uint64 // cumulative bytes allocated
	gcCount uint32
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procSample{cpu: cpu, allocs: ms.Mallocs, alloc: ms.TotalAlloc, gcCount: ms.NumGC}
}

// liveHeapMiB collects garbage twice (the second pass empties the pools'
// victim caches) and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

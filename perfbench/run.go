package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"corec"
)

const (
	clients      = 2                // closed-loop client goroutines
	opTimeout    = 30 * time.Second // bound on one client call
	p99MinSample = 1000             // a p99 needs this many samples
)

// tally counts every operation the benchmark issues, set-up included,
// and keeps the first few failures for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64
	mu        sync.Mutex
	messages  []string
}

func (t *tally) fail(wrong bool, err error) {
	t.failed.Add(1)
	if wrong {
		t.wrong.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.messages) < 5 {
		t.messages = append(t.messages, err.Error())
	}
}

// series are the latency samples of one measured window.
type series struct {
	mu       sync.Mutex
	gets     samples // healthy Gets
	degraded samples // Gets while a server is killed
	puts     samples
	steps    samples // whole time steps
	recovers samples // Replace + RecoverServer per cycle
}

func (s *series) add(dst *samples, d time.Duration) {
	s.mu.Lock()
	*dst = append(*dst, d)
	s.mu.Unlock()
}

func (s *series) count(dst *samples) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(*dst)
}

// run drives one fleet: its clients, tracer and counters. The tracer is
// nil until a traced window opens.
type run struct {
	seed    int64
	f       *fleet
	tr      *tracer
	tal     *tally
	clients [clients]*corec.Client
	opSeq   atomic.Int64

	// Set once the measured window opens; nil during set-up, so warm-up
	// latencies are verified but not recorded.
	win *series
	m   *meter

	// Window bookkeeping kept by the workloads.
	demoted, promoted int
	repaired          int
	replaceTimes      samples
	recoverTimes      samples
}

func newRun(seed int64, f *fleet, tal *tally) *run {
	r := &run{seed: seed, f: f, tal: tal}
	for i := range r.clients {
		r.clients[i] = f.c.NewClient()
	}
	return r
}

// parallel runs fn once per client and waits for all of them.
func (r *run) parallel(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// put stages data and records the call.
func (r *run) put(c int, parent int64, name string, box corec.Box, version int64, data []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	op := r.opSeq.Add(1)
	t0 := time.Now()
	err := r.clients[c].Put(ctx, name, box, corec.Version(version), data)
	t1 := time.Now()
	r.tr.record(0, spanPut, parent, op, t0, t1)
	r.tal.attempted.Add(1)
	if err != nil {
		r.tal.fail(false, fmt.Errorf("put: %w", err))
		return
	}
	if r.win != nil {
		r.win.add(&r.win.puts, t1.Sub(t0))
	}
}

// get reads one block, checks it byte for byte against its seeded payload
// and records the call in dst (when measuring).
func (r *run) get(c int, v *verifier, parent int64, name string, box corec.Box, block, size int, version int64, dst func(*series) *samples) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	op := r.opSeq.Add(1)
	t0 := time.Now()
	data, err := r.clients[c].Get(ctx, name, box, corec.Version(version))
	t1 := time.Now()
	r.tr.record(0, spanGet, parent, op, t0, t1)
	r.tal.attempted.Add(1)
	if err != nil {
		r.tal.fail(false, fmt.Errorf("get: %w", err))
		return
	}
	if err := v.check(data, size, name, block, version); err != nil {
		r.tal.fail(true, fmt.Errorf("wrong read (seed %d): %w", r.seed, err))
		return
	}
	if r.win != nil {
		r.win.add(dst(r.win), t1.Sub(t0))
	}
}

func healthy(s *series) *samples  { return &s.gets }
func degraded(s *series) *samples { return &s.degraded }

// timed runs fn as a span and returns its duration.
func (r *run) timed(name string, parent int64, fn func()) time.Duration {
	op := r.opSeq.Add(1)
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.tr.record(0, name, parent, op, t0, t1)
	return t1.Sub(t0)
}

// window bounds the measured window: it closes at the first boundary
// after its length, once every required latency series holds enough
// samples for a p99, and in any case at three times its length.
type window struct {
	start, soft, hard time.Time
	need              []func() int
}

func newWindow(seconds float64, need ...func() int) *window {
	now := time.Now()
	d := time.Duration(seconds * float64(time.Second))
	return &window{start: now, soft: now.Add(d), hard: now.Add(3 * d), need: need}
}

func (w *window) over() bool {
	now := time.Now()
	if now.Before(w.soft) {
		return false
	}
	if !now.Before(w.hard) {
		return true
	}
	for _, n := range w.need {
		if n() < p99MinSample {
			return false
		}
	}
	return true
}

package main

import (
	"context"
	"fmt"
	"time"

	"corec"
)

// workload is one traffic mix on a fresh fleet.
type workload interface {
	// spill reports whether the fleet runs the tiered store.
	spill() bool
	// params describes the workload for the environment block.
	params() map[string]any
	// setup preloads data and warms the fleet up; the measured window
	// starts from the state it leaves.
	setup(r *run) error
	// measure drives the closed loop until w is over.
	measure(r *run, w *window)
	// readBack reads every acknowledged write once more.
	readBack(r *run)
	// userBytes is the live user data the fleet holds.
	userBytes() int64
	// required lists the latency series that need p99 samples.
	required(s *series) []*samples
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "s3d-step":
		return &s3d{seed: seed}, nil
	case "s3d-spill":
		return &s3d{seed: seed, tiered: true}, nil
	case "small-churn":
		return &churn{seed: seed}, nil
	case "fail-recover":
		return &failRecover{s3d: s3d{seed: seed}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// S3D domain: a 128^3 float64 field in 64 blocks of 32^3 (256 KiB each).
const (
	s3dVar       = "s3d"
	s3dEdge      = 128
	s3dBlockEdge = 32
	s3dPerDim    = s3dEdge / s3dBlockEdge
	s3dBlocks    = s3dPerDim * s3dPerDim * s3dPerDim
	s3dBlockSize = s3dBlockEdge * s3dBlockEdge * s3dBlockEdge * 8
	// Warm-up ends once the encoded count repeats, or after this many steps.
	s3dMaxWarmSteps = 12
)

func s3dBox(b int) corec.Box {
	x := int64(b%s3dPerDim) * s3dBlockEdge
	y := int64(b/s3dPerDim%s3dPerDim) * s3dBlockEdge
	z := int64(b/(s3dPerDim*s3dPerDim)) * s3dBlockEdge
	return corec.Box3D(x, y, z, x+s3dBlockEdge, y+s3dBlockEdge, z+s3dBlockEdge)
}

// s3d is the S3D time-step workflow: every step both writers stage their
// half of the blocks, both readers read the other half, then the step ends.
type s3d struct {
	seed   int64
	tiered bool
	ts     int64 // last completed step
}

func (w *s3d) spill() bool { return w.tiered }

func (w *s3d) params() map[string]any {
	p := map[string]any{
		"domain": fmt.Sprintf("%d^3 float64", s3dEdge), "blocks": s3dBlocks,
		"block_bytes": s3dBlockSize, "clients": clients,
	}
	if w.tiered {
		p["l1_bytes_per_server"] = spillMemMB << 20
		p["l2"] = "disk segments in the build directory, no L3, no prefetch"
	}
	return p
}

func (w *s3d) userBytes() int64 { return s3dBlocks * s3dBlockSize }

func (w *s3d) required(s *series) []*samples { return []*samples{&s.gets, &s.puts} }

// mine lists the blocks client c handles in a phase, in a seeded order:
// writers take the blocks of their parity, readers the others'.
func (w *s3d) mine(c int, ts int64, phase uint64, reader bool) []int {
	var out []int
	for _, b := range shuffled(s3dBlocks, opRNG(w.seed, 0x53, uint64(ts), phase, uint64(c))) {
		if (b%clients == c) != reader {
			out = append(out, b)
		}
	}
	return out
}

// step runs one whole time step and returns its duration.
func (w *s3d) step(r *run) time.Duration {
	ts := w.ts + 1
	id := r.tr.newID()
	t0 := time.Now()
	r.parallel(func(c int) {
		buf := make([]byte, s3dBlockSize)
		for _, b := range w.mine(c, ts, 1, false) {
			fillPayload(buf, w.seed, s3dVar, b, ts)
			r.put(c, id, s3dVar, s3dBox(b), ts, buf)
		}
	})
	r.parallel(func(c int) {
		v := &verifier{seed: w.seed}
		for _, b := range w.mine(c, ts, 2, true) {
			r.get(c, v, id, s3dVar, s3dBox(b), b, s3dBlockSize, ts, healthy)
		}
	})
	r.timed(spanEndStep, id, func() {
		d, p := r.f.c.EndTimeStep(corec.Version(ts))
		r.demoted += d
		r.promoted += p
	})
	t1 := time.Now()
	r.tr.record(id, spanStep, 0, 0, t0, t1)
	w.ts = ts
	return t1.Sub(t0)
}

func (w *s3d) setup(r *run) error {
	prev := -1
	for i := 0; i < s3dMaxWarmSteps; i++ {
		w.step(r)
		if r.tal.failed.Load() > 0 {
			return fmt.Errorf("s3d warm-up step %d failed", w.ts)
		}
		enc := r.f.gauges().encoded
		if enc == prev {
			break
		}
		prev = enc
	}
	return nil
}

func (w *s3d) measure(r *run, win *window) {
	for !win.over() {
		r.win.add(&r.win.steps, w.step(r))
	}
}

func (w *s3d) readBack(r *run) {
	r.parallel(func(c int) {
		v := &verifier{seed: w.seed}
		for b := c; b < s3dBlocks; b += clients {
			r.get(c, v, 0, s3dVar, s3dBox(b), b, s3dBlockSize, w.ts, healthy)
		}
	})
}

// small-churn: a 1-D variable of 1 KiB slots under an 80/20 Get/Put mix.
const (
	churnVar      = "churn"
	churnSlots    = 2048
	churnSlotSize = 1024
	churnElems    = churnSlotSize / 8
	churnGetFrac  = 0.8
	churnWarmOps  = 256 // per client
)

func churnBox(slot int) corec.Box {
	lo := int64(slot) * churnElems
	return corec.Box{Lo: []int64{lo}, Hi: []int64{lo + churnElems}}
}

type churn struct{ seed int64 }

func (w *churn) spill() bool { return false }

func (w *churn) params() map[string]any {
	return map[string]any{
		"slots": churnSlots, "slot_bytes": churnSlotSize, "get_fraction": churnGetFrac,
		"version": 1, "clients": clients,
	}
}

func (w *churn) userBytes() int64 { return churnSlots * churnSlotSize }

func (w *churn) required(s *series) []*samples { return []*samples{&s.gets, &s.puts} }

// op issues one scheduled operation. A Put rewrites the slot's version-1
// bytes, so concurrent reads of the slot see the same payload either way.
func (w *churn) op(r *run, c int, v *verifier, buf []byte, parent int64, o churnOp) {
	if o.get {
		r.get(c, v, parent, churnVar, churnBox(o.slot), o.slot, churnSlotSize, 1, healthy)
		return
	}
	fillPayload(buf, w.seed, churnVar, o.slot, 1)
	r.put(c, parent, churnVar, churnBox(o.slot), 1, buf)
}

func (w *churn) setup(r *run) error {
	r.parallel(func(c int) {
		buf := make([]byte, churnSlotSize)
		for s := c; s < churnSlots; s += clients {
			fillPayload(buf, w.seed, churnVar, s, 1)
			r.put(c, 0, churnVar, churnBox(s), 1, buf)
		}
	})
	// Warm up from a stream of its own, so the measured schedule is the
	// same whatever the warm-up did.
	r.parallel(func(c int) {
		v, buf := &verifier{seed: w.seed}, make([]byte, churnSlotSize)
		sched := newChurnSchedule(w.seed, clients+c, churnSlots, churnGetFrac)
		for i := 0; i < churnWarmOps; i++ {
			w.op(r, c, v, buf, 0, sched.next())
		}
	})
	if r.tal.failed.Load() > 0 {
		return fmt.Errorf("small-churn preload failed")
	}
	return nil
}

func (w *churn) measure(r *run, win *window) {
	id := r.tr.newID()
	r.parallel(func(c int) {
		v, buf := &verifier{seed: w.seed}, make([]byte, churnSlotSize)
		sched := newChurnSchedule(w.seed, c, churnSlots, churnGetFrac)
		for !win.over() {
			w.op(r, c, v, buf, id, sched.next())
		}
	})
	r.tr.record(id, spanWindow, 0, 0, win.start, time.Now())
}

func (w *churn) readBack(r *run) {
	r.parallel(func(c int) {
		v := &verifier{seed: w.seed}
		for s := c; s < churnSlots; s += clients {
			r.get(c, v, 0, churnVar, churnBox(s), s, churnSlotSize, 1, healthy)
		}
	})
}

// fail-recover: the 64 S3D blocks written once and cooled until all are
// encoded; each cycle reads them healthy, kills a server, reads them
// degraded, then replaces and recovers the server.
const (
	failMaxCoolSteps = 16
	// A healthy Get takes about a sixth of a degraded one, so the healthy
	// window reads every block this many times per client: the two windows
	// then last about as long, and the healthy p99 rests on as many
	// samples as the degraded one.
	failHealthyPasses = 4
)

// Meter segment labels.
const (
	segHealthy  = "healthy"
	segDegraded = "degraded"
	segRecovery = "recovery"
)

type failRecover struct {
	s3d
	cycle int
}

func (w *failRecover) spill() bool { return false }

func (w *failRecover) params() map[string]any {
	p := w.s3d.params()
	p["healthy_reads_per_cycle"] = failHealthyPasses * clients * s3dBlocks
	p["degraded_reads_per_cycle"] = clients * s3dBlocks
	p["recovery"] = "aggressive"
	return p
}

func (w *failRecover) required(s *series) []*samples { return []*samples{&s.gets, &s.degraded} }

func (w *failRecover) setup(r *run) error {
	w.ts = 1
	r.parallel(func(c int) {
		buf := make([]byte, s3dBlockSize)
		for b := c; b < s3dBlocks; b += clients {
			fillPayload(buf, w.seed, s3dVar, b, 1)
			r.put(c, 0, s3dVar, s3dBox(b), 1, buf)
		}
	})
	if r.tal.failed.Load() > 0 {
		return fmt.Errorf("fail-recover preload failed")
	}
	for ts := 1; r.f.gauges().encoded < s3dBlocks; ts++ {
		if ts > failMaxCoolSteps {
			return fmt.Errorf("fail-recover: %d of %d blocks encoded after %d steps",
				r.f.gauges().encoded, s3dBlocks, failMaxCoolSteps)
		}
		r.f.c.EndTimeStep(corec.Version(ts))
	}
	w.readAll(r, 0, 0, false)
	return nil
}

// readAll has every client read all blocks once, in an order of its own
// drawn from the pass number.
func (w *failRecover) readAll(r *run, parent int64, pass uint64, deg bool) {
	dst := healthy
	if deg {
		dst = degraded
	}
	r.parallel(func(c int) {
		v := &verifier{seed: w.seed}
		for _, b := range shuffled(s3dBlocks, opRNG(w.seed, 0xfe, pass, uint64(c))) {
			r.get(c, v, parent, s3dVar, s3dBox(b), b, s3dBlockSize, 1, dst)
		}
	})
}

func (w *failRecover) measure(r *run, win *window) {
	first := int(uint64(w.seed) % fleetServers)
	for ; !win.over(); w.cycle++ {
		victim := corec.ServerID((first + w.cycle) % fleetServers)
		id := r.tr.newID()
		t0 := time.Now()
		for p := 0; p < failHealthyPasses; p++ {
			w.readAll(r, id, uint64(w.cycle<<8|p+1), false)
		}
		r.tr.record(id, spanWindow, 0, 0, t0, time.Now())

		r.m.stop()
		r.timed(spanKill, 0, func() { r.f.c.Kill(victim) })
		r.m.start(segDegraded)

		id = r.tr.newID()
		t0 = time.Now()
		w.readAll(r, id, uint64(w.cycle<<8|0xff), true)
		r.tr.record(id, spanWindow, 0, 0, t0, time.Now())

		r.m.stop()
		var err error
		replace := r.timed(spanReplace, 0, func() { _, err = r.f.c.Replace(victim) })
		r.m.start(segRecovery)
		r.tal.attempted.Add(1)
		if err != nil {
			r.tal.fail(false, fmt.Errorf("replace server %d: %w", victim, err))
			return
		}
		var n int
		recoverD := r.timed(spanRecoverSrv, 0, func() {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			n, err = r.clients[0].RecoverServer(ctx, victim, corec.RecoveryAggressive)
		})
		r.tal.attempted.Add(1)
		if err != nil {
			r.tal.fail(false, fmt.Errorf("recover server %d: %w", victim, err))
			return
		}
		r.repaired += n
		r.replaceTimes = append(r.replaceTimes, replace)
		r.recoverTimes = append(r.recoverTimes, recoverD)
		r.win.add(&r.win.recovers, replace+recoverD)
		r.m.stop()
		r.m.start(segHealthy)
	}
}

func (w *failRecover) readBack(r *run) { w.readAll(r, 0, 0, false) }

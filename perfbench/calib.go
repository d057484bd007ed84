package main

import (
	"context"
	"fmt"
	"time"

	"corec/internal/erasure"
	"corec/internal/transport"
	"corec/internal/types"
)

// calibration holds direct measurements of single layers, taken in the
// traced run after the measured window.
type calibration struct {
	encodeMBps, reconstructMBps float64
	rtt1k, rtt256k              time.Duration
	spanCost                    time.Duration
}

const (
	calibRounds   = 7   // batches; the median batch is reported
	calibCodecOps = 60  // codec calls per batch
	calibRTT1k    = 800 // round trips at 1 KiB
	calibRTT256k  = 120 // round trips at 256 KiB
)

func calibrate(seed int64) (calibration, error) {
	var cal calibration
	var err error
	if cal.encodeMBps, cal.reconstructMBps, err = calibrateErasure(seed); err != nil {
		return cal, err
	}
	if cal.rtt1k, cal.rtt256k, err = calibrateTransport(); err != nil {
		return cal, err
	}
	cal.spanCost = calibrateTracer()
	return cal, nil
}

// calibrateErasure times Codec.Encode and Codec.ReconstructData at RS(3+1)
// on one 256 KiB object, with the worker and cache settings every server
// uses, and returns user megabytes per second for each.
func calibrateErasure(seed int64) (encode, reconstruct float64, err error) {
	codec, err := erasure.New(3, 1)
	if err != nil {
		return 0, 0, err
	}
	codec = codec.WithWorkers(0).WithDecodeCache(0)
	data := make([]byte, s3dBlockSize)
	fillPayload(data, seed, "calibration", 0, 0)
	shards, _ := codec.Split(data)
	if err := codec.Encode(shards); err != nil {
		return 0, 0, err
	}
	mbps := func(d time.Duration) float64 {
		return float64(calibCodecOps) * float64(len(data)) / d.Seconds() / 1e6
	}
	var enc, rec []float64
	work := make([][]byte, len(shards))
	for round := 0; round < calibRounds; round++ {
		t0 := time.Now()
		for i := 0; i < calibCodecOps; i++ {
			if err := codec.Encode(shards); err != nil {
				return 0, 0, err
			}
		}
		enc = append(enc, mbps(time.Since(t0)))

		t0 = time.Now()
		for i := 0; i < calibCodecOps; i++ {
			copy(work, shards)
			work[i%3] = nil // one lost data shard, rotating
			if err := codec.ReconstructData(work); err != nil {
				return 0, 0, err
			}
		}
		rec = append(rec, mbps(time.Since(t0)))
	}
	return median(enc), median(rec), nil
}

// calibrateTransport times Send round trips on a standalone multiplexed
// TCP fabric whose handler answers each request with as many bytes as it
// carried, and returns the median round trip at 1 KiB and at 256 KiB.
func calibrateTransport() (rtt1k, rtt256k time.Duration, err error) {
	reply := make([]byte, s3dBlockSize)
	tn := transport.NewTCPNetwork("127.0.0.1")
	defer tn.Close()
	tn.ConfigureMux(muxConns, 0)
	const srv = types.ServerID(0)
	tn.Register(srv, func(ctx context.Context, req *transport.Message) *transport.Message {
		return &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Data: reply[:len(req.Data)]}
	})
	rtt := func(size, n int) (time.Duration, error) {
		payload := make([]byte, size)
		var lat samples
		for i := 0; i < n+n/10; i++ {
			req := &transport.Message{Kind: transport.MsgPut, Var: "calibration", Data: payload}
			t0 := time.Now()
			resp, err := tn.Send(context.Background(), -1, srv, req)
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if len(resp.Data) != size {
				return 0, fmt.Errorf("echo returned %d bytes, want %d", len(resp.Data), size)
			}
			transport.Recycle(resp)
			if i >= n/10 { // the first tenth warms the connections
				lat = append(lat, d)
			}
		}
		med, _ := lat.quantile(0.5)
		return med, nil
	}
	if rtt1k, err = rtt(1<<10, calibRTT1k); err != nil {
		return 0, 0, fmt.Errorf("transport calibration: %w", err)
	}
	if rtt256k, err = rtt(s3dBlockSize, calibRTT256k); err != nil {
		return 0, 0, fmt.Errorf("transport calibration: %w", err)
	}
	return rtt1k, rtt256k, nil
}

// calibrateTracer returns the cost of recording one span.
func calibrateTracer() time.Duration {
	const n = 20000
	tr := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		tr.record(0, spanGet, 1, int64(i), now, now)
	}
	return time.Since(t0) / n
}

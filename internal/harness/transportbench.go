package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"corec/internal/transport"
	"corec/internal/types"
)

// Staging-throughput benchmark for the transport layer: concurrent clients
// push put/get round-trips through a TCP loopback fabric on its multiplexed
// zero-copy path. `make bench` serializes the report to BENCH_transport.json
// so transport regressions show up as diffs in review.

// transportBenchConc is the number of client goroutines; the fabric runs
// its default connection count and window.
const transportBenchConc = 8

// TransportBenchRow is one throughput/latency measurement.
type TransportBenchRow struct {
	// Op is "put" (payload client->server) or "get" (payload server->client).
	Op string `json:"op"`
	// PayloadBytes is the logical object size moved per operation.
	PayloadBytes int `json:"payload_bytes"`
	// Concurrency is the number of client goroutines issuing requests.
	Concurrency int `json:"concurrency"`
	// GBps is payload volume moved per second, best round.
	GBps float64 `json:"gb_per_s"`
	// P50Micros/P99Micros are per-request latency percentiles of the best
	// round, in microseconds.
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// TransportBenchReport is the full harness output, serialized to
// BENCH_transport.json by `make bench`.
type TransportBenchReport struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	Quick      bool `json:"quick"`
	// ConnsPerPeer and Window are the connection count per peer and the
	// in-flight window per connection the rows ran with.
	ConnsPerPeer int                 `json:"conns_per_peer"`
	Window       int                 `json:"window"`
	Rows         []TransportBenchRow `json:"rows"`
}

// transportRoundResult is one timed round.
type transportRoundResult struct {
	gbps     float64
	p50, p99 float64 // microseconds
}

// benchHandler serves the benchmark protocol: puts are acknowledged, gets
// return a payload of the requested size sliced from one shared buffer.
func benchHandler(getPool []byte) transport.Handler {
	return func(ctx context.Context, req *transport.Message) *transport.Message {
		switch req.Kind {
		case transport.MsgPut:
			return transport.Ok()
		case transport.MsgGet:
			n := int(req.Num)
			if n > len(getPool) {
				return transport.Errf("payload %d exceeds pool", n)
			}
			return &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Data: getPool[:n]}
		}
		return transport.Errf("unexpected kind %v", req.Kind)
	}
}

// runTransportRound drives conc client goroutines through round-trips on the
// fabric for one batch window and reports throughput and latency
// percentiles over every completed operation.
func runTransportRound(n *transport.TCPNetwork, to types.ServerID, op string, payload []byte, conc int, batch time.Duration) (transportRoundResult, error) {
	runtime.GC()
	ctx := context.Background()
	var wg sync.WaitGroup
	lats := make([][]time.Duration, conc)
	errs := make([]error, conc)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Client IDs are negative; each worker gets its own, like real
			// clients.
			from := types.ServerID(-1 - w)
			req := &transport.Message{}
			mine := make([]time.Duration, 0, 4096)
			for time.Since(start) < batch {
				*req = transport.Message{Kind: transport.MsgPut, Var: "bench", Version: 1, Data: payload}
				if op == "get" {
					*req = transport.Message{Kind: transport.MsgGet, Var: "bench", Num: int64(len(payload))}
				}
				t0 := time.Now()
				resp, err := n.Send(ctx, from, to, req)
				mine = append(mine, time.Since(t0))
				if err == nil {
					err = resp.AsError()
				}
				if err == nil && op == "get" && len(resp.Data) != len(payload) {
					err = fmt.Errorf("short get: %d of %d bytes", len(resp.Data), len(payload))
				}
				if err != nil {
					errs[w] = err
					return
				}
				// The response is fully consumed; hand its pooled frame
				// buffer back.
				transport.Recycle(resp)
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return transportRoundResult{}, err
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return transportRoundResult{}, fmt.Errorf("transport bench: no operations completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}
	bytes := float64(len(all)) * float64(len(payload))
	return transportRoundResult{
		gbps: bytes / elapsed.Seconds() / 1e9,
		p50:  pct(0.50),
		p99:  pct(0.99),
	}, nil
}

// betterOf keeps the higher-throughput round (the analogue of benchPair's
// min-of-rounds: discard disturbed windows).
func betterOf(a, b transportRoundResult) transportRoundResult {
	if b.gbps > a.gbps {
		return b
	}
	return a
}

// RunTransportBench measures staging round-trip throughput and latency on
// the TCP fabric. quick shrinks the payload set and timing windows for CI
// smoke runs.
func RunTransportBench(quick bool) (*TransportBenchReport, error) {
	payloads := []int{64 << 10, 1 << 20}
	batch, rounds := 300*time.Millisecond, 3
	if quick {
		payloads = []int{1 << 20}
		batch, rounds = 80*time.Millisecond, 2
	}
	const srv = types.ServerID(0)
	n := transport.NewTCPNetwork("127.0.0.1")
	defer n.Close()
	rep := &TransportBenchReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Quick:        quick,
		ConnsPerPeer: n.MuxConns(),
		Window:       transport.DefaultMaxInFlight,
	}
	maxPayload := payloads[len(payloads)-1]
	getPool := make([]byte, maxPayload)
	payload := make([]byte, maxPayload)
	for i := range payload {
		payload[i] = byte(i * 31)
		getPool[i] = byte(i * 17)
	}
	n.Register(srv, benchHandler(getPool))

	for _, size := range payloads {
		for _, op := range []string{"put", "get"} {
			// Warm up outside the clock (dials, pools, server goroutines),
			// then keep the best of several rounds.
			if _, err := runTransportRound(n, srv, op, payload[:size], transportBenchConc, batch/4); err != nil {
				return nil, err
			}
			var best transportRoundResult
			for r := 0; r < rounds; r++ {
				v, err := runTransportRound(n, srv, op, payload[:size], transportBenchConc, batch)
				if err != nil {
					return nil, err
				}
				best = betterOf(best, v)
			}
			rep.Rows = append(rep.Rows, TransportBenchRow{
				Op: op, PayloadBytes: size, Concurrency: transportBenchConc,
				GBps: best.gbps, P50Micros: best.p50, P99Micros: best.p99,
			})
		}
	}
	return rep, nil
}

// WriteTransportBench renders the report as the human-readable companion to
// the JSON artifact.
func WriteTransportBench(w io.Writer, rep *TransportBenchReport) {
	fmt.Fprintf(w, "Transport staging benchmarks (GOMAXPROCS=%d, quick=%v, %d conns x %d window, %d clients)\n",
		rep.GOMAXPROCS, rep.Quick, rep.ConnsPerPeer, rep.Window, transportBenchConc)
	fmt.Fprintf(w, "%-5s %-10s %-9s %-11s %s\n", "op", "payload", "GB/s", "p50 us", "p99 us")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-5s %-10s %-9.3f %-11.0f %.0f\n",
			r.Op, fmtBytes(r.PayloadBytes), r.GBps, r.P50Micros, r.P99Micros)
	}
}

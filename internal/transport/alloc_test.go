package transport

import (
	"context"
	"io"
	"testing"

	"corec/internal/types"
)

// TestWriteFrameIDAllocsBounded guards the hot send path against allocation
// regressions: with the buffer pool warm, scatter-gather framing of a 1 MiB
// put must stay within a handful of small allocations per frame — the
// payload itself is never copied, and the scratch buffer comes from the
// pool.
func TestWriteFrameIDAllocsBounded(t *testing.T) {
	m := &Message{Kind: MsgPut, Var: "alloc", Key: "k", Version: 3, Data: make([]byte, 1<<20)}
	for i := 0; i < 4; i++ {
		if err := writeFrameID(io.Discard, m, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := writeFrameID(io.Discard, m, 1); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: the net.Buffers header, the pool's interface
	// boxing on put, and loop-variant escapes — all O(bytes of metadata),
	// none O(payload).
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("writeFrameID: %.0f allocs/op for a 1 MiB frame, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkSend measures allocs/op and ns/op of a 1 MiB put over real TCP
// loopback on the multiplexed zero-copy path. Run with -benchmem: bytes/op
// should stay far below the payload size (no frame-sized copies).
func BenchmarkSend(b *testing.B) {
	payload := make([]byte, 1<<20)
	n := NewTCPNetwork("127.0.0.1")
	n.ConfigureMux(1, DefaultMaxInFlight)
	n.Register(0, func(_ context.Context, req *Message) *Message {
		Recycle(req) // the bench handler does not retain the payload
		return Ok()
	})
	defer n.Close()
	req := &Message{Kind: MsgPut, Var: "bench", Data: payload}
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := n.Send(ctx, types.ServerID(-1), 0, req)
		if err != nil {
			b.Fatal(err)
		}
		Recycle(resp)
	}
}

package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// stallingPeer is a frame-level server that waits before reading each new
// connection, so a large client frame blocks mid-write. It records a
// summary of every intact request it receives and answers each with Ok.
type stallingPeer struct {
	ln    net.Listener
	stall time.Duration
	wg    sync.WaitGroup

	mu  sync.Mutex
	got []receivedFrame
}

type receivedFrame struct {
	Var     string
	From    int
	HasByte bool // the payload contains the marker byte
}

const mutatedByte = 0xBB

func startStallingPeer(t *testing.T, stall time.Duration) *stallingPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallingPeer{ln: ln, stall: stall}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.serve(conn)
		}
	}()
	return p
}

func (p *stallingPeer) serve(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	time.Sleep(p.stall)
	hdr := make([]byte, frameHeaderSize)
	for {
		reqID, m, err := readFramePooled(conn, hdr)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.got = append(p.got, receivedFrame{Var: m.Var, From: int(m.From), HasByte: bytes.IndexByte(m.Data, mutatedByte) >= 0})
		p.mu.Unlock()
		if writeFrameID(conn, Ok(), reqID) != nil {
			return
		}
	}
}

// stop closes the listener and waits for every connection to end; the
// clients must have closed their fabrics first.
func (p *stallingPeer) stop() []receivedFrame {
	_ = p.ln.Close()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got
}

// TestSendReleasesRequestOnReturn enforces Send's ownership contract: once
// Send returns, even with a context error, the fabric never reads the
// request again, so a caller that resends it or reuses its Data cannot get
// the new bytes sent under the old request. Two cases: a request cancelled
// while still queued behind a large frame blocked on a stalled peer, and a
// request cancelled while its own frame is half written.
func TestSendReleasesRequestOnReturn(t *testing.T) {
	const stall = 300 * time.Millisecond
	peer := startStallingPeer(t, stall)
	addr := peer.ln.Addr().String()
	mutate := func(m *Message) {
		for i := range m.Data {
			m.Data[i] = mutatedByte
		}
		m.From = 77
	}
	newFabric := func() *TCPNetwork {
		n := NewTCPNetwork("127.0.0.1")
		n.ConfigureMux(1, 8)
		n.AddRemote(0, addr)
		return n
	}

	// Queued, never claimed: a 1 KiB request behind a 32 MiB one.
	n := newFabric()
	big := &Message{Kind: MsgPut, Var: "big", Data: bytes.Repeat([]byte{0x11}, 32<<20)}
	bigDone := make(chan error, 1)
	go func() {
		_, err := n.Send(context.Background(), -1, 0, big)
		bigDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for n.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("large request never entered flight")
		}
		time.Sleep(time.Millisecond)
	}
	small := &Message{Kind: MsgPut, Var: "small", Data: bytes.Repeat([]byte{0xAA}, 1<<10)}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := n.Send(ctx, -1, 0, small)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued send: err = %v, want deadline exceeded", err)
	}
	mutate(small)
	if err := <-bigDone; err != nil {
		t.Fatalf("large send after the stall: %v", err)
	}

	// Claimed: a 32 MiB request cancelled while its frame is being written
	// to a fresh, stalled connection.
	n2 := newFabric()
	big2 := &Message{Kind: MsgPut, Var: "big2", Data: bytes.Repeat([]byte{0x22}, 32<<20)}
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = n2.Send(ctx, -1, 0, big2)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-write send: err = %v, want deadline exceeded", err)
	}
	mutate(big2)

	n.Close()
	n2.Close()
	got := peer.stop()
	sawBig := false
	for _, f := range got {
		if f.HasByte || f.From == 77 {
			t.Errorf("peer received mutated request %q (from %d)", f.Var, f.From)
		}
		sawBig = sawBig || f.Var == "big"
	}
	if !sawBig {
		t.Fatal("peer never received the large request")
	}
}

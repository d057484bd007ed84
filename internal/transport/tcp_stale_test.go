package transport

import (
	"context"
	"testing"
)

// TestTCPStalePoolRedial restarts a server under the same address and
// checks the client fabric salvages the next request: the multiplexed
// connection died with the old process, so it is replaced by exactly one
// fresh dial against the new listener, and the caller never sees the
// staleness. Whether the connection's reader notices the close before the
// Send or the Send trips over it first, the count is the same.
func TestTCPStalePoolRedial(t *testing.T) {
	echo := func(ctx context.Context, req *Message) *Message {
		return &Message{Kind: MsgOK, Var: req.Var}
	}
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	n := NewTCPNetwork("127.0.0.1")
	defer n.Close()
	n.ConfigureMux(1, 0)
	n.AddRemote(3, addr)
	ctx := context.Background()

	resp, err := n.Send(ctx, -1, 3, &Message{Kind: MsgPing, Var: "warm"})
	if err != nil || resp.Var != "warm" {
		t.Fatalf("warmup exchange: %v (%+v)", err, resp)
	}
	if n.MuxRedials() != 0 {
		t.Fatalf("redials after warmup = %d, want 0", n.MuxRedials())
	}

	// Restart the server on the same address: the connection is now
	// stale, but the fabric's directory entry is still correct.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewTCPServer(addr, echo)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()

	resp, err = n.Send(ctx, -1, 3, &Message{Kind: MsgPing, Var: "again"})
	if err != nil {
		t.Fatalf("send across restart not salvaged: %v", err)
	}
	if resp.Var != "again" {
		t.Fatalf("resp = %+v", resp)
	}
	if n.MuxRedials() != 1 {
		t.Fatalf("redials = %d, want exactly 1", n.MuxRedials())
	}
}

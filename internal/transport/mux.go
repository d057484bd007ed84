package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"corec/internal/types"
)

// Request multiplexing: a small fixed set of connections per peer carries
// many concurrent requests, correlated by the frame header's request ID.
// Each connection runs one writer goroutine (scatter-gather frame writes
// off a channel) and one demultiplexing reader goroutine (pooled frame
// reads, responses routed to per-request channels), with a bounded
// in-flight window applying backpressure.
//
// Failure semantics:
//
//   - A corrupt response frame fails only its own request with the
//     retryable ErrCorruptFrame; the length prefix bounded the damage, so
//     the stream realigns and every other pipelined request proceeds.
//   - A dead connection (EOF, reset, write error) fails all its pending
//     requests with the retryable ErrConnBroken and the next request
//     transparently dials a replacement (counted in MuxRedials). The
//     failing request itself is salvaged by one immediate retry: the
//     shared connection may simply predate a server restart under the
//     same address.
//   - A request abandoned by its caller (context done) before the writer
//     claimed it is skipped by the writer. One abandoned while the writer
//     is encoding it fails its connection, because only closing the
//     connection interrupts a blocked write; see Send for why.

// DefaultMuxConns is the number of multiplexed connections per peer.
const DefaultMuxConns = 2

// DefaultMaxInFlight is the per-connection pipelining window.
const DefaultMaxInFlight = 32

// muxResult carries one demultiplexed response (or its failure).
type muxResult struct {
	m   *Message
	err error
}

// muxWrite is one frame handed to the writer goroutine.
type muxWrite struct {
	reqID uint64
	m     *Message
}

// muxSet is the per-peer connection set, used round-robin.
type muxSet struct {
	conns []*muxConn
	next  uint64
}

// muxConn is one multiplexed connection: a writer goroutine, a demux
// reader goroutine, and the pending-request table between them.
type muxConn struct {
	owner   *TCPNetwork
	conn    net.Conn
	writeCh chan muxWrite
	// sem is the in-flight window: holding a slot admits one request to
	// the pipeline.
	sem  chan struct{}
	done chan struct{}
	once sync.Once
	// writerDone is closed when writeLoop returns; from then on the writer
	// holds no request.
	writerDone chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	// writing is the ID of the request the writer is encoding (0 = none).
	// The writer claims a request under mu, and only while it is still
	// pending, so a request abandoned before the claim is never read.
	writing uint64
	broken  bool
	cause   error
}

func newMuxConn(owner *TCPNetwork, conn net.Conn, window int) *muxConn {
	mc := &muxConn{
		owner:      owner,
		conn:       conn,
		writeCh:    make(chan muxWrite, window),
		sem:        make(chan struct{}, window),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
		pending:    make(map[uint64]chan muxResult),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc
}

func (mc *muxConn) writeLoop() {
	defer close(mc.writerDone)
	for {
		select {
		case w := <-mc.writeCh:
			if !mc.claim(w.reqID) {
				continue // abandoned by its requester: never touch w.m
			}
			err := writeFrameID(mc.conn, w.m, w.reqID)
			mc.mu.Lock()
			mc.writing = 0
			mc.mu.Unlock()
			if err != nil {
				// A partial frame may be on the wire; the stream cannot be
				// trusted, so the whole connection fails (the pending
				// request, this one included, all get ErrConnBroken).
				mc.fail(err)
				return
			}
		case <-mc.done:
			return
		}
	}
}

// claim marks reqID as being written, unless its requester abandoned it
// or the connection broke.
func (mc *muxConn) claim(reqID uint64) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if _, ok := mc.pending[reqID]; !ok || mc.broken {
		return false
	}
	mc.writing = reqID
	return true
}

func (mc *muxConn) readLoop() {
	hdr := make([]byte, frameHeaderSize)
	for {
		reqID, m, err := readFramePooled(mc.conn, hdr)
		switch {
		case err == nil:
			mc.deliver(reqID, muxResult{m: m})
		case errors.Is(err, ErrCorruptFrame):
			// The frame boundary held, so the stream is realigned: fail
			// only the request the corrupt frame answered and keep every
			// other pipelined request in flight. The frame CRC covers the
			// request ID, so a corrupt ID cannot misroute the failure to a
			// healthy request's frame.
			mc.deliver(reqID, muxResult{err: err})
		default:
			mc.fail(err)
			return
		}
	}
}

// deliver routes one response to its waiting request. The pending entry is
// removed under the lock; the send happens outside it on a buffered
// channel, so delivery never blocks on (or deadlocks with) the requester.
func (mc *muxConn) deliver(reqID uint64, r muxResult) {
	mc.mu.Lock()
	ch := mc.pending[reqID]
	delete(mc.pending, reqID)
	mc.mu.Unlock()
	if ch != nil {
		ch <- r
	}
	// A nil channel means the requester gave up (context cancellation) or
	// the frame answered nothing we sent; either way the response is
	// dropped and its buffer left to the GC.
}

// abandon withdraws a request that will not complete with a response and
// returns only once the writer no longer holds it. A request still queued
// is skipped by the writer's claim; one being written fails the
// connection, which unblocks the write, and abandon waits for the writer
// to exit. Any late response is discarded by deliver.
func (mc *muxConn) abandon(reqID uint64) {
	mc.mu.Lock()
	delete(mc.pending, reqID)
	held := mc.writing == reqID
	mc.mu.Unlock()
	if held {
		mc.fail(errors.New("request abandoned mid-write"))
		<-mc.writerDone
	}
}

// fail marks the connection broken, closes it, and fails every pending
// request with the retryable ErrConnBroken.
func (mc *muxConn) fail(cause error) {
	mc.mu.Lock()
	if !mc.broken {
		mc.broken = true
		mc.cause = cause
	}
	pend := mc.pending
	mc.pending = make(map[uint64]chan muxResult)
	mc.mu.Unlock()
	mc.once.Do(func() { close(mc.done) })
	_ = mc.conn.Close() // the failure cause is what gets reported
	err := fmt.Errorf("%w: %v", ErrConnBroken, cause)
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

func (mc *muxConn) isBroken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.broken
}

func (mc *muxConn) brokenErr() error {
	mc.mu.Lock()
	cause := mc.cause
	mc.mu.Unlock()
	if cause == nil {
		return ErrConnBroken
	}
	return fmt.Errorf("%w: %v", ErrConnBroken, cause)
}

// release returns an in-flight window slot.
func (mc *muxConn) release() {
	<-mc.sem
	mc.owner.inflight.Add(-1)
}

// roundTrip runs one request over the multiplexed connection: acquire a
// window slot, register the request ID, enqueue the frame for the writer,
// await the demultiplexed response. It returns an error only after the
// writer has let go of req (see abandon).
func (mc *muxConn) roundTrip(ctx context.Context, req *Message) (*Message, error) {
	select {
	case mc.sem <- struct{}{}:
	case <-mc.done:
		return nil, mc.brokenErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	mc.owner.inflight.Add(1)
	defer mc.release()

	reqID := mc.owner.reqSeq.Add(1)
	ch := make(chan muxResult, 1)
	mc.mu.Lock()
	if mc.broken {
		mc.mu.Unlock()
		return nil, mc.brokenErr()
	}
	mc.pending[reqID] = ch
	mc.mu.Unlock()

	select {
	case mc.writeCh <- muxWrite{reqID: reqID, m: req}:
	case <-mc.done:
		mc.abandon(reqID)
		return nil, mc.brokenErr()
	case <-ctx.Done():
		mc.abandon(reqID)
		return nil, ctx.Err()
	}

	select {
	case r := <-ch:
		if r.err != nil {
			mc.abandon(reqID)
		}
		return r.m, r.err
	case <-ctx.Done():
		mc.abandon(reqID)
		return nil, ctx.Err()
	}
}

// getMuxConn returns the destination's next multiplexed connection in
// round-robin order, dialing fresh or replacement connections lazily.
func (n *TCPNetwork) getMuxConn(to types.ServerID) (*muxConn, error) {
	n.muxMu.Lock()
	set := n.muxes[to]
	if set == nil {
		set = &muxSet{conns: make([]*muxConn, n.muxConns)}
		n.muxes[to] = set
	}
	i := int(set.next % uint64(len(set.conns)))
	set.next++
	old := set.conns[i]
	if old != nil && !old.isBroken() {
		n.muxMu.Unlock()
		return old, nil
	}
	// Dialing under muxMu keeps slot management race-free; dials are rare
	// (first use of a peer and replacement of broken connections).
	c, err := n.dial(to)
	if err != nil {
		n.muxMu.Unlock()
		return nil, err
	}
	if old != nil {
		n.muxRedials.Add(1)
	}
	mc := newMuxConn(n, c, n.maxInFlight)
	set.conns[i] = mc
	n.muxMu.Unlock()
	return mc, nil
}

// Send implements Network: the request rides one of the destination's
// shared multiplexed connections. A request whose connection broke is
// retried once on the next connection (dialed afresh if it broke too),
// because the shared connection may simply predate a server restart and
// that salvage must not surface as a request failure.
//
// Ownership: Send sets req.From and reads req, Data included, only until
// it returns. Once Send returns, with a response or with any error
// (context cancellation included), the fabric holds no reference to req:
// the caller may resend it or overwrite its Data, and the bytes it writes
// never reach the wire under this request. Keeping that promise means a
// request cancelled while its frame is half written fails its connection;
// the other requests on it get the retryable ErrConnBroken and are
// salvaged by the redial above. The response belongs to the caller (see
// Recycle).
func (n *TCPNetwork) Send(ctx context.Context, from, to types.ServerID, req *Message) (*Message, error) {
	req.From = from
	mc, err := n.getMuxConn(to)
	if err != nil {
		return nil, err
	}
	resp, err := mc.roundTrip(ctx, req)
	if err == nil || !errors.Is(err, ErrConnBroken) || ctx.Err() != nil {
		return resp, err
	}
	mc, err = n.getMuxConn(to)
	if err != nil {
		return nil, err
	}
	return mc.roundTrip(ctx, req)
}

// dropMux tears down the destination's multiplexed connections (address
// change, unregistration). In-flight requests fail with the retryable
// ErrConnBroken.
func (n *TCPNetwork) dropMux(id types.ServerID) {
	n.muxMu.Lock()
	set := n.muxes[id]
	delete(n.muxes, id)
	n.muxMu.Unlock()
	if set == nil {
		return
	}
	for _, mc := range set.conns {
		if mc != nil {
			mc.fail(errors.New("connection dropped (peer reconfigured)"))
		}
	}
}

// dropAllMux tears down every multiplexed connection (fabric Close).
func (n *TCPNetwork) dropAllMux() {
	n.muxMu.Lock()
	sets := make([]*muxSet, 0, len(n.muxes))
	for _, set := range n.muxes {
		sets = append(sets, set)
	}
	n.muxes = make(map[types.ServerID]*muxSet)
	n.muxMu.Unlock()
	for _, set := range sets {
		for _, mc := range set.conns {
			if mc != nil {
				mc.fail(errors.New("connection dropped (fabric closed)"))
			}
		}
	}
}

// ActiveMuxConns reports the number of live multiplexed connections across
// all peers (the gauge surfaced by FabricStatus).
func (n *TCPNetwork) ActiveMuxConns() int {
	n.muxMu.Lock()
	defer n.muxMu.Unlock()
	live := 0
	for _, set := range n.muxes {
		for _, mc := range set.conns {
			if mc != nil && !mc.isBroken() {
				live++
			}
		}
	}
	return live
}

// BreakConns severs every live client connection to the destination
// without touching the destination server. The seeded fault injector uses
// it to model mid-stream connection loss; requests in flight fail with
// the retryable ErrConnBroken and are salvaged by the redial path.
func (n *TCPNetwork) BreakConns(to types.ServerID) int {
	n.muxMu.Lock()
	var mcs []*muxConn
	if set := n.muxes[to]; set != nil {
		for _, mc := range set.conns {
			if mc != nil && !mc.isBroken() {
				mcs = append(mcs, mc)
			}
		}
	}
	n.muxMu.Unlock()
	for _, mc := range mcs {
		mc.fail(errors.New("connection broken by fault injection"))
	}
	return len(mcs)
}

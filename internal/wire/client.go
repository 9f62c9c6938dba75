package wire

// Client: a pipelining connection pool for the wire protocol. Each
// pooled connection multiplexes any number of concurrent requests —
// a writer stamps a fresh requestID on every frame and registers a
// waiter; a per-connection reader goroutine demultiplexes response
// frames back to their waiters by id. Callers on different goroutines
// therefore share connections and naturally pipeline, which is
// exactly the traffic shape the server's coalescer wants.
//
// Request frames combine as the server's responses do: each is
// encoded into the connection's pending bytes, and frames queued
// together go out in one socket write (writeFrame).
//
// Context cancellation abandons the waiter and fires a best-effort
// CANCEL frame so the server vacates the request from the coalescer;
// a response that arrives anyway is dropped on the floor.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed is returned for requests issued after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ClientConfig shapes the client pool. Zero fields take defaults.
type ClientConfig struct {
	// Conns is the pool size (default 2). One is plenty for
	// throughput — the protocol pipelines — but a second hides
	// head-of-line blocking on very large responses.
	Conns int
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	return c
}

// dialTimeout bounds connection establishment. (A response payload
// larger than DefaultMaxFrame fails the connection: see readLoop.)
const dialTimeout = 5 * time.Second

// Client issues wire-protocol requests over a pool of pipelined
// connections. Safe for concurrent use.
type Client struct {
	addr string
	cfg  ClientConfig

	ids  atomic.Uint64 // requestID source, shared across connections
	next atomic.Uint64 // round-robin cursor

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
}

// Dial creates a client pool for addr, eagerly establishing one
// connection so configuration errors surface immediately.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{addr: addr, cfg: cfg.withDefaults()}
	c.conns = make([]*clientConn, c.cfg.Conns)
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cc
	return c, nil
}

// Close severs every pooled connection and fails their outstanding
// waiters.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for _, cc := range c.conns {
		if cc != nil {
			conns = append(conns, cc)
		}
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.fail(ErrClientClosed)
		<-cc.readerDone
	}
	return nil
}

// dial establishes one connection and starts its reader.
func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
	}
	return c.open(nc), nil
}

// open wraps an established connection and starts its reader.
func (c *Client) open(nc net.Conn) *clientConn {
	cc := &clientConn{
		cl:         c,
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 64<<10),
		waiters:    make(map[uint64]chan clientResp),
		readerDone: make(chan struct{}),
	}
	started := make(chan struct{})
	go func() {
		close(started)
		defer close(cc.readerDone)
		cc.readLoop()
	}()
	<-started
	return cc
}

// conn picks a pooled connection round-robin, redialing dead or
// not-yet-opened slots.
func (c *Client) conn() (*clientConn, error) {
	slot := int(c.next.Add(1)) % c.cfg.Conns
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	cc := c.conns[slot]
	if cc != nil && cc.alive() {
		return cc, nil
	}
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[slot] = cc
	return cc, nil
}

// clientResp is one demultiplexed response frame.
type clientResp struct {
	flags   uint16
	opcode  Opcode
	payload []byte
	err     error
}

// clientConn is one pooled connection: pending bytes that concurrent
// requests' frames combine into, and a reader goroutine fanning
// responses out to waiters.
type clientConn struct {
	cl *Client
	nc net.Conn
	br *bufio.Reader

	wmu     sync.Mutex // guards pending, spare and writing
	pending []byte     // encoded frames awaiting the socket
	spare   []byte     // the other buffer: the one being written, then reused
	writing bool       // a caller owns the socket's write side

	mu      sync.Mutex
	waiters map[uint64]chan clientResp
	err     error // sticky; set before nc.Close

	readerDone chan struct{}
}

func (cc *clientConn) alive() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// fail marks the connection dead, closes the socket, and delivers err
// to every outstanding waiter.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	waiters := cc.waiters
	cc.waiters = make(map[uint64]chan clientResp)
	cc.mu.Unlock()
	//lint:ignore errcheck the connection is already failed
	cc.nc.Close()
	for _, ch := range waiters {
		ch <- clientResp{err: err}
	}
}

// readLoop demultiplexes response frames to waiters until the
// connection dies. An unsolicited ERR frame (requestID 0 or unknown)
// is the server announcing a protocol-level teardown: the whole
// connection fails with its message.
func (cc *clientConn) readLoop() {
	var hdr [HeaderSize]byte
	for {
		if _, err := io.ReadFull(cc.br, hdr[:]); err != nil {
			cc.fail(err)
			return
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			cc.fail(err)
			return
		}
		if h.Flags&FlagResponse == 0 {
			cc.fail(ErrBadFlags)
			return
		}
		if h.PayloadLen > DefaultMaxFrame {
			cc.fail(ErrFrameTooBig)
			return
		}
		payload := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(cc.br, payload); err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		ch := cc.waiters[h.RequestID]
		delete(cc.waiters, h.RequestID)
		cc.mu.Unlock()
		if ch == nil {
			// Canceled or unknown request. An ERR frame with no
			// claimant means the server is closing the connection on a
			// protocol violation we (or a sibling) committed.
			if h.Opcode == OpErr {
				se, perr := ParseErrorPayload(payload)
				if perr != nil {
					cc.fail(perr)
				} else {
					cc.fail(se)
				}
				return
			}
			continue
		}
		ch <- clientResp{flags: h.Flags, opcode: h.Opcode, payload: payload}
	}
}

// writeFrame encodes one frame into the connection's pending bytes.
// A caller that finds a write under way returns nil at once. Otherwise
// it becomes the writer: it yields once, so concurrent callers' frames
// join the buffer, then writes everything pending in one socket write
// and repeats until nothing is left. A write error drops what is
// pending and fails the connection, which fails every waiter: do
// registers a request's waiter before queuing its frame.
func (cc *clientConn) writeFrame(op Opcode, id uint64, appendPayload func([]byte) []byte) error {
	cc.wmu.Lock()
	frame, off := BeginFrame(cc.pending)
	if appendPayload != nil {
		frame = appendPayload(frame)
	}
	FinishFrame(frame, off, op, 0, id)
	cc.pending = frame
	if cc.writing {
		cc.wmu.Unlock()
		return nil
	}
	cc.writing = true
	cc.wmu.Unlock()
	runtime.Gosched()
	cc.wmu.Lock()
	var err error
	for err == nil && len(cc.pending) > 0 {
		out := cc.pending
		cc.pending, cc.spare = cc.spare[:0], nil
		cc.wmu.Unlock()
		_, err = cc.nc.Write(out)
		cc.wmu.Lock()
		cc.spare = out[:0]
	}
	if err != nil {
		cc.pending = cc.pending[:0]
	}
	cc.writing = false
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(err)
	}
	return err
}

// do issues one request and waits for its response or ctx. On ctx
// expiry the waiter is abandoned and a best-effort CANCEL frame tells
// the server to vacate the request.
func (c *Client) do(ctx context.Context, op Opcode, appendPayload func([]byte) []byte) (clientResp, error) {
	cc, err := c.conn()
	if err != nil {
		return clientResp{}, err
	}
	id := c.ids.Add(1)
	ch := make(chan clientResp, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return clientResp{}, err
	}
	cc.waiters[id] = ch
	cc.mu.Unlock()
	if err := cc.writeFrame(op, id, appendPayload); err != nil {
		return clientResp{}, err
	}
	select {
	case resp := <-ch:
		if resp.err != nil {
			return clientResp{}, resp.err
		}
		return resp, nil
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.waiters, id)
		cc.mu.Unlock()
		//lint:ignore errcheck cancel delivery is best effort; the request times out server-side regardless
		cc.writeFrame(OpCancel, id, nil)
		return clientResp{}, ctx.Err()
	}
}

// respError converts an error-flagged response into a *StatusError.
func respError(resp clientResp) error {
	if resp.flags&FlagError == 0 {
		return nil
	}
	se, perr := ParseErrorPayload(resp.payload)
	if perr != nil {
		return perr
	}
	return se
}

// Search runs one pattern search. both selects both-strand search,
// matching the HTTP API's strands="both".
func (c *Client) Search(ctx context.Context, pattern string, both bool) (SearchResult, error) {
	resp, err := c.do(ctx, OpSearch, func(b []byte) []byte {
		return AppendSearchRequest(b, []byte(pattern), both)
	})
	if err != nil {
		return SearchResult{}, err
	}
	if err := respError(resp); err != nil {
		return SearchResult{}, err
	}
	return ParseSearchResult(resp.payload)
}

// Classify runs one read classification. minFraction ≤ 0 takes the
// server default.
func (c *Client) Classify(ctx context.Context, read string, minFraction float64) (ClassifyResult, error) {
	resp, err := c.do(ctx, OpClassify, func(b []byte) []byte {
		return AppendClassifyRequest(b, []byte(read), minFraction)
	})
	if err != nil {
		return ClassifyResult{}, err
	}
	if err := respError(resp); err != nil {
		return ClassifyResult{}, err
	}
	return ParseClassifyResult(resp.payload)
}

// Stats fetches the server's library statistics. Keys the payload
// carries that StatsResult does not know are ignored.
func (c *Client) Stats(ctx context.Context) (StatsResult, error) {
	resp, err := c.do(ctx, OpStats, nil)
	if err != nil {
		return StatsResult{}, err
	}
	if err := respError(resp); err != nil {
		return StatsResult{}, err
	}
	var st StatsResult
	if err := json.Unmarshal(resp.payload, &st); err != nil {
		return StatsResult{}, fmt.Errorf("wire: stats payload: %w", err)
	}
	return st, nil
}

// Ping round-trips an empty frame, verifying liveness and protocol
// agreement.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.do(ctx, OpPing, nil)
	if err != nil {
		return err
	}
	if err := respError(resp); err != nil {
		return err
	}
	if resp.opcode != OpPing {
		return fmt.Errorf("wire: ping answered with %s frame", resp.opcode)
	}
	return nil
}

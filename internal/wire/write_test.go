package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// gatedConn is a net.Conn that puts every socket write in the test's
// hands: Write hands a copy of its bytes to wrote, then blocks until
// the test sends its result on release (nil for success) or the conn
// closes. Reads come from a pipe the test feeds through feed.
type gatedConn struct {
	rd      *io.PipeReader
	feed    *io.PipeWriter
	wrote   chan []byte
	release chan error
	done    chan struct{}
	once    sync.Once
}

func newGatedConn() *gatedConn {
	rd, feed := io.Pipe()
	return &gatedConn{
		rd: rd, feed: feed,
		wrote:   make(chan []byte, 16),
		release: make(chan error),
		done:    make(chan struct{}),
	}
}

func (g *gatedConn) Read(p []byte) (int, error) { return g.rd.Read(p) }

func (g *gatedConn) Write(p []byte) (int, error) {
	select {
	case g.wrote <- append([]byte(nil), p...):
	case <-g.done:
		return 0, net.ErrClosed
	}
	select {
	case err := <-g.release:
		if err != nil {
			return 0, err
		}
		return len(p), nil
	case <-g.done:
		return 0, net.ErrClosed
	}
}

func (g *gatedConn) Close() error {
	g.once.Do(func() {
		close(g.done)
		g.rd.Close()
	})
	return nil
}

func (g *gatedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (g *gatedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (g *gatedConn) SetDeadline(time.Time) error      { return nil }
func (g *gatedConn) SetReadDeadline(time.Time) error  { return nil }
func (g *gatedConn) SetWriteDeadline(time.Time) error { return nil }

// nextWrite returns the bytes of the next socket write, which is then
// blocked until the test releases it.
func nextWrite(t *testing.T, g *gatedConn) []byte {
	t.Helper()
	select {
	case b := <-g.wrote:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("no socket write")
		return nil
	}
}

// noMoreWrites fails if a socket write was started; call it once every
// goroutine that could write has returned.
func noMoreWrites(t *testing.T, g *gatedConn) {
	t.Helper()
	select {
	case b := <-g.wrote:
		t.Fatalf("unexpected socket write of %d bytes", len(b))
	default:
	}
}

// splitFrames parses one socket write into whole frames, failing on
// any frame whose header or length does not check.
func splitFrames(t *testing.T, b []byte) (hs []Header, payloads [][]byte) {
	t.Helper()
	for len(b) > 0 {
		if len(b) < HeaderSize {
			t.Fatalf("%d trailing bytes", len(b))
		}
		h, err := ParseHeader(b[:HeaderSize])
		if err != nil {
			t.Fatalf("frame %d: %v", len(hs), err)
		}
		end := HeaderSize + int(h.PayloadLen)
		if end > len(b) {
			t.Fatalf("frame %d: payload cut at %d of %d bytes", len(hs), len(b)-HeaderSize, h.PayloadLen)
		}
		hs, payloads = append(hs, h), append(payloads, b[HeaderSize:end])
		b = b[end:]
	}
	return hs, payloads
}

// waitFor polls cond until it holds, failing with what after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *serverConn) pendingFrames() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.npending
}

// serveGated runs one server connection over a gatedConn and returns
// it once registered. Cleanup closes the conn and joins the handler.
func serveGated(t *testing.T, b Backend) (*Server, *serverConn, *gatedConn) {
	t.Helper()
	srv := NewServer(b, nil, ServerConfig{})
	g := newGatedConn()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(g)
	}()
	t.Cleanup(func() {
		g.Close()
		g.feed.Close()
		<-done
	})
	var c *serverConn
	waitFor(t, "the connection to register", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for sc := range srv.conns {
			c = sc
		}
		return c != nil
	})
	return srv, c, g
}

// bareConn is a server connection over nc with no reader or workers:
// the test calls send itself.
func bareConn(nc net.Conn) *serverConn {
	c := &serverConn{srv: NewServer(&fakeBackend{}, nil, ServerConfig{}), nc: nc}
	c.room.L = &c.wmu
	return c
}

// gateBackend holds each Search until the test closes the gate named
// by its pattern.
type gateBackend struct {
	fakeBackend
	gates map[string]chan struct{}
}

func (g *gateBackend) Search(ctx context.Context, pattern []byte, both bool) (SearchResult, error) {
	<-g.gates[string(pattern)]
	return g.fakeBackend.Search(ctx, pattern, both)
}

// TestServerCombinesFinishedFrames pins the combined write: responses
// that finish while a write is in flight go out together in the one
// write that follows it, in the order they finished (not the order
// they arrived), each frame intact.
func TestServerCombinesFinishedFrames(t *testing.T) {
	patterns := map[uint64]string{2: "AAAA", 3: "CCCCCC", 4: "GGGGGGGG", 5: "TTTTTTTTTT"}
	gb := &gateBackend{gates: map[string]chan struct{}{}}
	for _, p := range patterns {
		gb.gates[p] = make(chan struct{})
	}
	srv, c, g := serveGated(t, gb)

	if _, err := g.feed.Write(encodeFrame(OpPing, 0, 1, nil)); err != nil {
		t.Fatal(err)
	}
	hs, _ := splitFrames(t, nextWrite(t, g))
	if len(hs) != 1 || hs[0].RequestID != 1 || hs[0].Opcode != OpPing {
		t.Fatalf("first write %+v, want the ping response alone", hs)
	}
	for id := uint64(2); id <= 5; id++ {
		if _, err := g.feed.Write(encodeFrame(OpSearch, 0, id, AppendSearchRequest(nil, []byte(patterns[id]), false))); err != nil {
			t.Fatal(err)
		}
	}
	order := []uint64{4, 2, 5, 3}
	for i, id := range order {
		close(gb.gates[patterns[id]])
		waitFor(t, "the response to queue", func() bool { return c.pendingFrames() == i+1 })
	}
	g.release <- nil
	hs, payloads := splitFrames(t, nextWrite(t, g))
	g.release <- nil
	if len(hs) != len(order) {
		t.Fatalf("second write carries %d frames, want %d", len(hs), len(order))
	}
	for i, h := range hs {
		if h.RequestID != order[i] || h.Opcode != OpSearch || h.Flags != FlagResponse {
			t.Fatalf("frame %d: %+v, want the response to request %d", i, h, order[i])
		}
		res, err := ParseSearchResult(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		want := patterns[order[i]]
		if len(res.Matches) != 1 || res.Matches[0].Ref != want || res.Matches[0].Offset != len(want) {
			t.Fatalf("frame %d: %+v, want the answer for %q", i, res, want)
		}
	}
	waitFor(t, "the writer to return", func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		return !c.writing
	})
	noMoreWrites(t, g)
	if got := srv.writeFrames.Count(); got != 2 {
		t.Fatalf("%d writes observed, want 2", got)
	}
	if got := srv.writeFrames.Sum(); got != 5 {
		t.Fatalf("%v frames observed over the writes, want 5", got)
	}
}

// TestServerDropsFramesAfterEnd pins what is never written: a frame
// queued after the closing ERR frame, and every frame queued behind or
// after a failed write.
func TestServerDropsFramesAfterEnd(t *testing.T) {
	ping := func(id uint64) []byte { return encodeFrame(OpPing, FlagResponse, id, nil) }
	errFrame := encodeFrame(OpErr, FlagResponse|FlagError, 2, AppendErrorPayload(nil, 400, "bad"))

	t.Run("after the closing frame", func(t *testing.T) {
		g := newGatedConn()
		defer g.Close()
		c := bareConn(g)
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			c.send(ping(1), false, false)
		}()
		first := nextWrite(t, g)
		c.send(errFrame, true, false) // a write is under way: both return at once
		c.send(ping(3), false, false)
		g.release <- nil
		second := nextWrite(t, g)
		g.release <- nil
		<-writer
		if !bytes.Equal(first, ping(1)) || !bytes.Equal(second, errFrame) {
			t.Fatalf("writes %x then %x, want the ping then the ERR frame alone", first, second)
		}
		c.send(ping(4), false, false)
		noMoreWrites(t, g)
	})

	t.Run("after a write error", func(t *testing.T) {
		g := newGatedConn()
		defer g.Close()
		c := bareConn(g)
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			c.send(ping(1), false, false)
		}()
		nextWrite(t, g)
		c.send(ping(2), false, false) // queued behind the write that fails
		g.release <- errors.New("planted write failure")
		<-writer
		c.send(ping(3), false, false)
		noMoreWrites(t, g)
		if n := c.pendingFrames(); n != 0 {
			t.Fatalf("%d frames still pending after the failed write", n)
		}
	})
}

// TestServerBoundsPendingFrames pins the backpressure: a client that
// pipelines and never reads gets at most pipelineDepth frames pending
// behind the stuck write, and the reader stops admitting requests once
// the workers and the work queue are full.
func TestServerBoundsPendingFrames(t *testing.T) {
	srv, c, g := serveGated(t, &fakeBackend{})
	const sent = 4 * pipelineDepth
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for id := uint64(1); id <= sent; id++ {
			if _, err := g.feed.Write(encodeFrame(OpPing, 0, id, nil)); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		g.Close() // unblocks the feeder; serveGated's cleanup runs after this one
		<-fed
	})
	stuck := len(nextWrite(t, g)) / HeaderSize // never released
	// Admitted: the frames in the stuck write, pipelineDepth pending,
	// one in each other worker waiting for room, a full work queue, and
	// the one in the reader's hand.
	want := int64(stuck + pipelineDepth + (connWorkers - 1) + pipelineDepth + 1)
	admitted := srv.frames[OpPing]
	waitFor(t, "the pending frames and the work queue to fill", func() bool {
		return c.pendingFrames() == pipelineDepth && len(c.work) == cap(c.work) && admitted.Value() >= want
	})
	if got := admitted.Value(); got != want {
		t.Fatalf("reader admitted %d requests, want %d", got, want)
	}
}

// TestSendAllocs pins the combined write's steady state: appending a
// finished frame and writing it allocates nothing once the pending
// buffers have grown.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	result := SearchResult{Matches: []Match{{Ref: "chr1", Offset: 500, Strand: "+"}}, Probes: 3}
	frame, off := BeginFrame(nil)
	frame = AppendSearchResult(frame, &result)
	FinishFrame(frame, off, OpSearch, FlagResponse, 42)
	c := bareConn(discardConn{})
	c.send(frame, false, false)
	c.send(frame, false, false)
	if allocs := testing.AllocsPerRun(1000, func() { c.send(frame, false, false) }); allocs != 0 {
		t.Fatalf("steady-state send allocates: %v allocs/op", allocs)
	}
}

// discardConn is a net.Conn whose writes all succeed.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestClientCombinesWrites pins the client side: frames written while
// another caller's write is in flight return at once and go out
// together, in order, in the one write that follows.
func TestClientCombinesWrites(t *testing.T) {
	g := newGatedConn()
	cl := &Client{cfg: ClientConfig{Conns: 1}.withDefaults()}
	cc := cl.open(g)
	defer func() {
		cc.fail(ErrClientClosed)
		<-cc.readerDone
	}()
	first := make(chan error, 1)
	go func() { first <- cc.writeFrame(OpPing, 1, nil) }()
	nextWrite(t, g)
	for id := uint64(2); id <= 4; id++ {
		if err := cc.writeFrame(OpSearch, id, func(b []byte) []byte {
			return AppendSearchRequest(b, []byte("ACGT"), false)
		}); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- nil
	hs, payloads := splitFrames(t, nextWrite(t, g))
	g.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	noMoreWrites(t, g)
	if len(hs) != 3 {
		t.Fatalf("second write carries %d frames, want 3", len(hs))
	}
	for i, h := range hs {
		if h.RequestID != uint64(i+2) || h.Opcode != OpSearch {
			t.Fatalf("frame %d: %+v", i, h)
		}
		if pat, _, err := ParseSearchRequest(payloads[i]); err != nil || string(pat) != "ACGT" {
			t.Fatalf("frame %d payload: %q, %v", i, pat, err)
		}
	}
}

// TestClientFailedWriteFailsEveryWaiter pins the error path of the
// combined write: when the write carrying other callers' frames
// fails, every one of those callers gets the error.
func TestClientFailedWriteFailsEveryWaiter(t *testing.T) {
	g := newGatedConn()
	cl := &Client{cfg: ClientConfig{Conns: 1}.withDefaults()}
	cc := cl.open(g)
	cl.conns = []*clientConn{cc}
	const n = 8
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errc <- cl.Ping(context.Background()) }()
	}
	inFlight := len(nextWrite(t, g)) / HeaderSize
	waitFor(t, "every frame to queue", func() bool {
		cc.wmu.Lock()
		defer cc.wmu.Unlock()
		return inFlight+len(cc.pending)/HeaderSize == n
	})
	planted := errors.New("planted write failure")
	g.release <- planted
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, planted) {
				t.Fatalf("caller %d: %v, want the write error", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers never saw the failed write", n-i, n)
		}
	}
	<-cc.readerDone
	noMoreWrites(t, g)
}

// TestShutdownWhileReaderBackpressured proves graceful shutdown drains
// a connection whose reader is not on the socket when it begins: the
// reader is blocked handing a request to full workers, and must not
// go back to waiting on the socket once they take it.
func TestShutdownWhileReaderBackpressured(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	srv, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	// Every worker blocked, a full work queue, one in the reader's hand.
	const n = connWorkers + pipelineDepth + 1
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cl.Search(context.Background(), "ACGT", false)
			errc <- err
		}()
	}
	waitFor(t, "every request to be admitted", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.conns {
			c.mu.Lock()
			admitted := len(c.inflight)
			c.mu.Unlock()
			return admitted == n && fb.inFly.Load() == connWorkers
		}
		return false
	})
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitFor(t, "shutdown to begin", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.closed
	})
	close(fb.block)
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("request %d failed during drain: %v", i, err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

package wire

// The wire server: one long-lived TCP listener beside the HTTP
// server, every connection fully pipelined. Per connection:
//
//	readLoop  — one goroutine decoding frames: header, payload, and
//	            per-request cancel registration keyed by requestID. An
//	            opcode the Backend marks inline (Inliner: for
//	            internal/server, SEARCH and PING) it answers itself,
//	            in arrival order; every other request flows into a
//	            bounded work channel (backpressure: a client with
//	            pipelineDepth frames in flight blocks until responses
//	            drain).
//	workers   — connWorkers goroutines executing the requests the reader
//	            hands over against the Backend concurrently, so a
//	            CLASSIFY or STATS never delays the frames behind it.
//
// There is no writer goroutine. A frame is written by whoever finishes
// it: serve appends its encoded response to the connection's pending
// bytes. A worker that finds no write under way becomes the writer —
// it yields once, so responses finishing beside it join the buffer,
// then writes everything pending in one socket write and repeats until
// nothing is left. The reader holds its own responses in pending
// without taking the write, and writes them itself only before a read
// that could block (fewer bytes buffered than the next header or
// payload) or once pipelineDepth frames are pending: a burst of
// pipelined requests that arrive in one read goes out in one write.
// Frames therefore go out in completion order, and a response costs no
// goroutine wake-up. At pipelineDepth pending frames an appender waits
// for the writer (backpressure: a client that stops reading stalls the
// workers, then the reader, then TCP).
//
// A request handed to a worker gets a cancel context of its
// connection's, which is a cancel context of the server's; it has no
// deadline, because no wire request shape reads its context while it
// runs. A CANCEL frame cancels the named request's context, the
// connection's end cancels every request still on it, and a forced
// Shutdown cancels them all. A request the reader answers runs under
// the connection's context itself: no CANCEL frame can reach it while
// it runs, since the reader that would decode the frame is running it.
// Protocol errors answer with one ERR frame and close the connection;
// application errors travel as FlagError responses and leave it open.
//
// The steady-state frame path is allocation-free: header bytes live
// in the connection, payload and response buffers are pooled, the
// pending bytes are reused, and the encoders append in place. The
// //biohd:hotpath annotations on readFrame, send and flush root the
// lint proof; readLoop and workerLoop reach the Backend, which
// allocates by design, so they are not roots.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Backend executes decoded wire requests: one method per request
// opcode that reaches it (PING and CANCEL never do). Implementations
// must treat the pattern and read slices as borrowed: they alias the
// frame buffer and are reused after the call returns. internal/server's
// WireBackend adapts the HTTP service's shared execution layer, which
// is what guarantees byte-identical answers across transports.
//
// Application failures are reported as *StatusError carrying the same
// code and message the HTTP API would answer with; any other error is
// mapped to code 500.
type Backend interface {
	Search(ctx context.Context, pattern []byte, both bool) (SearchResult, error)
	Classify(ctx context.Context, read []byte, minFraction float64) (ClassifyResult, error)
	Stats() StatsResult
}

// Inliner is an optional interface of a Backend: Inline reports
// whether the connection's reader may answer op itself rather than
// hand it to a worker. Mark only opcodes whose run time is short and
// bounded — a request answered on the reader delays every frame behind
// it on its connection by its own run time. NewServer asks once per
// opcode; a Backend without Inline has every request run on a worker.
type Inliner interface {
	Inline(op Opcode) bool
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("wire: server closed")

// pipelineDepth bounds the work channel and the finished frames
// pending on a connection's socket; beyond them the reader stops
// draining the socket and TCP backpressure reaches the client. The
// decoded-but-unanswered requests of a connection are bounded by
// connWorkers + pipelineDepth + 1: one on each worker (executing, or
// waiting for room to queue its response), a full channel, and one the
// reader holds while it waits to hand it over.
const pipelineDepth = 64

// connWorkers is the number of per-connection executors of the
// requests the reader hands over: at most this many of a connection's
// CLASSIFY and STATS requests (every request, for a Backend without
// Inline) run at once.
const connWorkers = 16

// keepAlivePeriod is the TCP keepalive probe interval of a wire
// connection.
const keepAlivePeriod = 30 * time.Second

// The backoff between failed accepts, as net/http's: from
// minAcceptDelay, doubling to maxAcceptDelay.
const (
	minAcceptDelay = 5 * time.Millisecond
	maxAcceptDelay = time.Second
)

// ServerConfig shapes the wire listener's connection lifecycle. Zero
// fields take the defaults below; a negative IdleTimeout disables it.
type ServerConfig struct {
	// MaxFrame caps one frame's payload in bytes (default
	// DefaultMaxFrame). Larger frames are a protocol error.
	MaxFrame int
	// IdleTimeout closes a connection that sends no frame for this
	// long (default 2m, matching the HTTP keep-alive idle timeout).
	IdleTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = 2 * time.Minute
	case c.IdleTimeout < 0:
		c.IdleTimeout = 0
	}
	return c
}

// buffer is a pooled frame buffer, shared by payload reads and
// response encodes.
type buffer struct {
	b []byte
}

// request is one decoded in-flight request.
type request struct {
	op      Opcode
	id      uint64
	payload *buffer
	ctx     context.Context
	cancel  context.CancelFunc
}

// Server serves the wire protocol over TCP listeners.
type Server struct {
	backend Backend
	cfg     ServerConfig
	reg     *metrics.Registry

	base     context.Context // parent of every connection's context
	baseStop context.CancelFunc

	connGauge   *metrics.Gauge
	frames      [8]*metrics.Counter // request frames received, by opcode
	protoCount  *metrics.Counter
	frameSecs   *metrics.Histogram
	depth       *metrics.Histogram
	writeFrames *metrics.Histogram
	served      *metrics.Counter // requests answered on the reader

	inline [8]bool // by opcode: answered on the reader (Inliner)

	bufPool sync.Pool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	closed    bool

	done   chan struct{}
	connWg sync.WaitGroup
}

// Metric names exported on the shared registry (rendered by the HTTP
// /metrics endpoint when the registries are shared).
const (
	metricConnections = "biohd_wire_connections"
	metricFramesTotal = "biohd_wire_frames_total"
	metricProtoErrors = "biohd_wire_protocol_errors_total"
	metricFrameSecs   = "biohd_wire_frame_seconds"
	metricDepth       = "biohd_wire_pipeline_depth"
	metricWriteFrames = "biohd_wire_write_frames"
	metricServed      = "biohd_wire_reader_served_total"

	helpConnections = "Wire-protocol connections currently open."
	helpFramesTotal = "Wire-protocol request frames received, by opcode."
	helpProtoErrors = "Wire-protocol violations answered with an ERR frame and a connection close."
	helpFrameSecs   = "Wire-protocol request handling latency in seconds, decode to response enqueue."
	helpDepth       = "In-flight requests on a connection, sampled at each request admission."
	helpWriteFrames = "Response frames per socket write."
	helpServed      = "Wire-protocol requests answered on the connection's reader rather than a worker."
)

// depthBuckets bound the pipeline-depth and frames-per-write
// histograms: powers of two up to the per-connection pipeline cap.
var depthBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// NewServer creates a wire server executing requests on b. Metrics
// register on reg; pass the HTTP server's registry so the wire series
// render on the same /metrics endpoint (nil creates a private one).
func NewServer(b Backend, reg *metrics.Registry, cfg ServerConfig) *Server {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		backend:   b,
		cfg:       cfg.withDefaults(),
		reg:       reg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
		done:      make(chan struct{}),
	}
	s.base, s.baseStop = context.WithCancel(context.Background())
	s.connGauge = reg.Gauge(metricConnections, helpConnections)
	for _, op := range []Opcode{OpSearch, OpClassify, OpStats, OpPing, OpCancel} {
		s.frames[op] = reg.Counter(metricFramesTotal, helpFramesTotal,
			metrics.Label{Key: "opcode", Value: op.String()})
	}
	s.protoCount = reg.Counter(metricProtoErrors, helpProtoErrors)
	s.frameSecs = reg.Histogram(metricFrameSecs, helpFrameSecs, metrics.DefBuckets)
	s.depth = reg.Histogram(metricDepth, helpDepth, depthBuckets)
	s.writeFrames = reg.Histogram(metricWriteFrames, helpWriteFrames, depthBuckets)
	s.served = reg.Counter(metricServed, helpServed)
	if in, ok := b.(Inliner); ok {
		for op := range s.inline {
			s.inline[op] = in.Inline(Opcode(op))
		}
	}
	s.bufPool.New = func() interface{} { return &buffer{b: make([]byte, 0, 4096)} }
	return s
}

func (s *Server) getBuffer() *buffer {
	b := s.bufPool.Get().(*buffer)
	b.b = b.b[:0]
	return b
}

func (s *Server) putBuffer(b *buffer) {
	if b != nil {
		s.bufPool.Put(b)
	}
}

// grow resizes a pooled buffer to n bytes, reallocating only past the
// buffer's high-water mark.
//
//biohd:coldstart pool-miss growth to the connection's high-water frame size; steady state reuses the backing array
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// Serve accepts connections on ln until Shutdown or Close. It returns
// ErrServerClosed after a clean shutdown, once every connection
// handler has exited, and the listener's error if the listener was
// closed under it. Any other accept error — EMFILE or ENFILE while the
// process is out of descriptors — passes: Serve backs off and accepts
// again, so the listener outlives the exhaustion.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		//lint:ignore errcheck the caller owns a listener we refuse to serve
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	defer s.connWg.Wait()
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			delay = min(max(2*delay, minAcceptDelay), maxAcceptDelay)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-s.done:
				t.Stop()
				return ErrServerClosed
			}
			continue
		}
		delay = 0
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			s.handleConn(nc)
		}()
	}
}

// Shutdown stops accepting connections and drains: open connections
// stop reading new frames, finish their in-flight requests, flush,
// and close. If ctx expires first the remaining connections are
// force-closed (their request contexts cancel) and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceClose()
		<-done
		return ctx.Err()
	}
}

// Close force-closes every listener and connection immediately.
func (s *Server) Close() error {
	s.beginShutdown()
	s.forceClose()
	s.connWg.Wait()
	return nil
}

// beginShutdown closes the accept loops and nudges every connection's
// reader off its blocking read. Idempotent.
func (s *Server) beginShutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	for ln := range s.listeners {
		//lint:ignore errcheck a listener failing to close cannot block shutdown
		ln.Close()
	}
	for c := range s.conns {
		c.closeRead()
	}
}

// forceClose cancels every in-flight request context and severs the
// connections.
func (s *Server) forceClose() {
	s.baseStop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		//lint:ignore errcheck force-close is best effort by definition
		c.nc.Close()
	}
}

func (s *Server) addConn(c *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.connGauge.Inc()
	return true
}

func (s *Server) removeConn(c *serverConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.connGauge.Dec()
	}
}

// serverConn is one accepted connection's state.
type serverConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	ctx context.Context // parent of every request context; canceled when the connection ends

	work chan request

	// draining stops the reader before its next frame: shutdown began,
	// or serve met a malformed payload.
	draining atomic.Bool

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc

	// The combined write (send). wmu guards the rest of the block; room
	// wakes appenders waiting for the writer to take pending.
	wmu      sync.Mutex
	room     sync.Cond
	pending  []byte // finished frames awaiting the socket, in completion order
	npending int    // frames in pending
	spare    []byte // the other buffer: the one being written, then reused
	writing  bool   // a goroutine owns the socket's write side
	closed   bool   // the closing frame is queued or a write failed: drop the rest

	hdr [HeaderSize]byte
}

// handleConn runs one connection's lifecycle: socket options, the
// reader and worker goroutines, protocol-error reporting, and
// teardown. Pool misses and goroutine starts here are the reviewed
// connection-setup cost; the steady state loops they feed are the
// hotpath roots.
func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
	ctx, cancel := context.WithCancel(s.base)
	defer cancel()
	c := &serverConn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		ctx:      ctx,
		work:     make(chan request, pipelineDepth),
		inflight: make(map[uint64]context.CancelFunc),
	}
	c.room.L = &c.wmu
	if !s.addConn(c) {
		return
	}
	defer s.removeConn(c)
	var workerWg sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		workerWg.Add(1)
		go func() {
			defer workerWg.Done()
			c.workerLoop()
		}()
	}
	rerr := c.readLoop()
	proto := isProtocolErr(rerr)
	if proto {
		s.protoCount.Inc()
	}
	c.flush()
	close(c.work)
	// The reader's own write is over, every other writer is a worker,
	// and a writer returns only once nothing is pending: after the join,
	// the socket is idle and the ERR frame below is written by this
	// goroutine.
	workerWg.Wait()
	if proto {
		c.enqueueErrFrame(0, rerr)
	}
}

// closeRead stops the reader so the connection starts draining;
// in-flight requests still complete. The flag stops a reader that is
// not on the socket (one blocked handing a request to the workers);
// the past deadline knocks one that is off its blocking read.
func (c *serverConn) closeRead() {
	c.draining.Store(true)
	//lint:ignore errcheck a dead connection is already what we want here
	c.nc.SetReadDeadline(time.Unix(0, 1))
}

// protoSentinels are the violations that close a connection with an
// ERR frame.
var protoSentinels = []error{
	ErrShortHeader, ErrBadMagic, ErrBadVersion, ErrBadCRC, ErrFrameTooBig,
	ErrShortPayload, ErrTrailingData, ErrBadOpcode, ErrBadStrands,
	ErrBadFlags, ErrDuplicateID,
}

func isProtocolErr(err error) bool {
	for _, s := range protoSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// readLoop decodes request frames until the connection errors, a
// protocol violation occurs, or closeRead stops it (nil). It answers
// CANCEL and the inline opcodes itself and hands every other request
// to the workers. It returns the terminal error; handleConn writes
// the frames it still holds and reports protocol violations with an
// ERR frame. Not a hotpath root: answering a request reaches the
// Backend, which allocates by design; readFrame roots the proof for
// the framing around it.
func (c *serverConn) readLoop() error {
	for {
		if c.srv.cfg.IdleTimeout > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout)); err != nil {
				return err
			}
		}
		// Checked after the re-arm: a closeRead that raced it set its
		// flag first, or its past deadline lands after the re-arm.
		if c.draining.Load() {
			return nil
		}
		h, buf, err := c.readFrame()
		if err != nil {
			return err
		}
		switch {
		case h.Opcode == OpCancel:
			c.cancelRequest(h.RequestID)
			c.srv.putBuffer(buf)
		case c.srv.inline[h.Opcode]:
			if !c.addInflight(h.RequestID, nil) {
				c.srv.putBuffer(buf)
				return ErrDuplicateID
			}
			c.srv.served.Inc()
			c.serve(request{op: h.Opcode, id: h.RequestID, payload: buf, ctx: c.ctx}, true)
		default:
			ctx, cancel := context.WithCancel(c.ctx)
			if !c.addInflight(h.RequestID, cancel) {
				cancel()
				c.srv.putBuffer(buf)
				return ErrDuplicateID
			}
			c.work <- request{op: h.Opcode, id: h.RequestID, payload: buf, ctx: ctx, cancel: cancel}
		}
	}
}

// readFrame reads and checks one request frame's header and reads its
// payload into a pooled buffer. Before a read that could block — fewer
// bytes buffered than the header or payload it needs — it writes the
// responses the reader holds (flush).
//
//biohd:hotpath
func (c *serverConn) readFrame() (Header, *buffer, error) {
	if c.br.Buffered() < HeaderSize {
		c.flush()
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(c.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if h.Flags&(FlagResponse|FlagError) != 0 {
		return Header{}, nil, ErrBadFlags
	}
	if !validRequestOp(h.Opcode) {
		return Header{}, nil, ErrBadOpcode
	}
	if h.PayloadLen > uint32(c.srv.cfg.MaxFrame) {
		return Header{}, nil, ErrFrameTooBig
	}
	c.srv.frames[h.Opcode].Inc()
	buf := c.srv.getBuffer()
	if h.PayloadLen > 0 {
		if c.br.Buffered() < int(h.PayloadLen) {
			c.flush()
		}
		buf.b = grow(buf.b, int(h.PayloadLen))
		if _, err := io.ReadFull(c.br, buf.b); err != nil {
			c.srv.putBuffer(buf)
			return Header{}, nil, err
		}
	}
	return h, buf, nil
}

// addInflight registers a request's cancel under its id, refusing
// duplicates, and samples the pipeline depth. A request the reader
// answers registers a nil cancel: it holds its id against duplicates,
// and no CANCEL frame can reach it while it runs.
func (c *serverConn) addInflight(id uint64, cancel context.CancelFunc) bool {
	c.mu.Lock()
	if _, dup := c.inflight[id]; dup {
		c.mu.Unlock()
		return false
	}
	c.inflight[id] = cancel
	n := len(c.inflight)
	c.mu.Unlock()
	c.srv.depth.Observe(float64(n))
	return true
}

// cancelRequest fires the named request's context. Unknown ids
// (already completed, or never sent) are ignored.
func (c *serverConn) cancelRequest(id uint64) {
	c.mu.Lock()
	cancel := c.inflight[id]
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// removeInflight drops a completed request's registration.
func (c *serverConn) removeInflight(id uint64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// workerLoop executes decoded requests until the work channel closes.
// Not a hotpath root: execution reaches the Backend (pattern parsing,
// the index, match conversion), which allocates per request by design
// — the zero-alloc guarantee covers the framing layer around it.
func (c *serverConn) workerLoop() {
	for req := range c.work {
		c.serve(req, false)
	}
}

// serve executes one request — PING, STATS, SEARCH or CLASSIFY; the
// reader answered CANCEL itself and refused any other opcode — and
// queues its encoded response; hold is set on the reader (see send). A
// malformed payload inside a well-formed frame is a protocol error:
// the ERR frame carries the request's id and the connection tears down.
func (c *serverConn) serve(req request, hold bool) {
	start := time.Now()
	out := c.srv.getBuffer()
	frame, off := BeginFrame(out.b)
	op, flags := req.op, FlagResponse
	var appErr, protoErr error
	switch req.op {
	case OpPing:
		// Empty response payload.
	case OpStats:
		st := c.srv.backend.Stats()
		if b, err := json.Marshal(&st); err != nil {
			appErr = err
		} else {
			frame = append(frame, b...)
		}
	case OpSearch:
		pattern, both, perr := ParseSearchRequest(req.payload.b)
		if perr != nil {
			protoErr = perr
		} else if res, err := c.srv.backend.Search(req.ctx, pattern, both); err != nil {
			appErr = err
		} else {
			frame = AppendSearchResult(frame, &res)
		}
	case OpClassify:
		read, minFrac, perr := ParseClassifyRequest(req.payload.b)
		if perr != nil {
			protoErr = perr
		} else if res, err := c.srv.backend.Classify(req.ctx, read, minFrac); err != nil {
			appErr = err
		} else {
			frame = AppendClassifyResult(frame, &res)
		}
	}
	switch {
	case protoErr != nil:
		frame = frame[:off+HeaderSize]
		op = OpErr
		flags |= FlagError
		frame = AppendErrorPayload(frame, 400, protoErr.Error())
		c.srv.protoCount.Inc()
	case appErr != nil:
		frame = frame[:off+HeaderSize]
		flags |= FlagError
		code, msg := errorCode(appErr)
		frame = AppendErrorPayload(frame, code, msg)
	}
	FinishFrame(frame, off, op, flags, req.id)
	out.b = frame
	c.finish(req)
	c.srv.frameSecs.Observe(time.Since(start).Seconds())
	if protoErr != nil {
		// Stop decoding further frames; the ERR frame is the last one
		// written and handleConn tears the connection down.
		c.closeRead()
	}
	c.send(out.b, protoErr != nil, hold)
	c.srv.putBuffer(out)
}

// errorCode maps a Backend error to the wire error payload: a
// StatusError carries the HTTP-equivalent status; anything else is an
// internal error.
func errorCode(err error) (int, string) {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code, se.Msg
	}
	return 500, err.Error()
}

// finish releases one served request: context, registration and
// payload buffer.
func (c *serverConn) finish(req request) {
	if req.cancel != nil {
		req.cancel()
	}
	c.removeInflight(req.id)
	c.srv.putBuffer(req.payload)
}

// enqueueErrFrame reports a reader-detected protocol violation. The
// offending frame's requestID is not always decodable, so id 0 stands
// in when attribution failed.
func (c *serverConn) enqueueErrFrame(id uint64, err error) {
	out := c.srv.getBuffer()
	frame, off := BeginFrame(out.b)
	frame = AppendErrorPayload(frame, 400, err.Error())
	FinishFrame(frame, off, OpErr, FlagResponse|FlagError, id)
	out.b = frame
	c.send(out.b, true, false)
	c.srv.putBuffer(out)
}

// send queues one finished frame behind those finished before it. On
// a worker (hold false) it makes the caller the writer if no goroutine
// is writing (see the file comment). On the reader (hold true) the
// frame waits in pending for the reader's next flush, or for the write
// under way to take it, unless pipelineDepth frames are pending and
// none is under way: then the reader writes them at once, so with no
// writer fewer than pipelineDepth frames are ever pending. last marks
// the frame that ends the connection (a protocol ERR frame); a frame
// queued after it, or after a write error, is dropped. At
// pipelineDepth pending frames the caller waits for the writer to take
// them.
//
//biohd:hotpath
func (c *serverConn) send(frame []byte, last, hold bool) {
	c.wmu.Lock()
	for c.npending >= pipelineDepth && !c.closed {
		c.room.Wait()
	}
	if c.closed {
		c.wmu.Unlock()
		return
	}
	if cap(c.pending)-len(c.pending) < len(frame) {
		c.pending = growPending(c.pending, len(frame))
	}
	c.pending = append(c.pending, frame...)
	c.npending++
	c.closed = last
	if c.writing || hold && c.npending < pipelineDepth {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	if !hold {
		c.wmu.Unlock()
		runtime.Gosched()
		c.wmu.Lock()
	}
	c.writeLocked()
	c.wmu.Unlock()
}

// flush writes the frames the reader holds in one socket write, unless
// a write is under way, which takes them with its own.
//
//biohd:hotpath
func (c *serverConn) flush() {
	c.wmu.Lock()
	if !c.writing && c.npending > 0 {
		c.writing = true
		c.writeLocked()
	}
	c.wmu.Unlock()
}

// writeLocked is the writer, entered with wmu held and the write side
// claimed: it writes everything pending, one socket write a round,
// until nothing is left, then releases the write side.
func (c *serverConn) writeLocked() {
	for c.npending > 0 {
		out, n := c.pending, c.npending
		c.pending, c.spare, c.npending = c.spare[:0], nil, 0
		c.room.Broadcast()
		c.wmu.Unlock()
		c.srv.writeFrames.Observe(float64(n))
		_, err := c.nc.Write(out)
		c.wmu.Lock()
		c.spare = out[:0]
		if err != nil {
			c.closed = true
			c.pending, c.npending = c.pending[:0], 0
			c.room.Broadcast()
		}
	}
	c.writing = false
}

// growPending makes room for n more bytes in the pending buffer,
// doubling it so a burst settles on one backing array.
//
//biohd:coldstart the first burst past the connection's high-water pending bytes; steady state appends in place
func growPending(b []byte, n int) []byte {
	nb := make([]byte, len(b), 2*cap(b)+n)
	copy(nb, b)
	return nb
}

package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// inliner marks SEARCH and PING inline over any test Backend, as
// internal/server's backend does.
type inliner struct{ Backend }

func (inliner) Inline(op Opcode) bool { return op == OpSearch || op == OpPing }

// classifyGate holds each Classify until the test calls open;
// entered receives one value per Classify that reached the backend.
type classifyGate struct {
	fakeBackend
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

// open releases every Classify, now and later. Register it as a
// cleanup after startServer, so that a failed test still releases the
// worker before the server's Close waits for it.
func (g *classifyGate) open() { g.once.Do(func() { close(g.release) }) }

func newClassifyGate() *classifyGate {
	return &classifyGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *classifyGate) Classify(ctx context.Context, read []byte, minFraction float64) (ClassifyResult, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.fakeBackend.Classify(ctx, read, minFraction)
}

// TestReaderCombinesInlineAnswers pins the reader's write: pipelined
// inline searches that arrive in one read are answered on the reader,
// in arrival order, and go out together in one socket write.
func TestReaderCombinesInlineAnswers(t *testing.T) {
	srv, _, g := serveGated(t, inliner{&fakeBackend{}})
	patterns := []string{"AAAA", "CCCCCC", "GGGGGGGG", "TTTTTTTTTT"}
	var burst []byte
	for i, p := range patterns {
		burst = append(burst, encodeFrame(OpSearch, 0, uint64(i+1), AppendSearchRequest(nil, []byte(p), false))...)
	}
	if _, err := g.feed.Write(burst); err != nil {
		t.Fatal(err)
	}
	hs, payloads := splitFrames(t, nextWrite(t, g))
	g.release <- nil
	if len(hs) != len(patterns) {
		t.Fatalf("the write carries %d frames, want %d", len(hs), len(patterns))
	}
	for i, h := range hs {
		if h.RequestID != uint64(i+1) || h.Opcode != OpSearch || h.Flags != FlagResponse {
			t.Fatalf("frame %d: %+v, want the response to request %d", i, h, i+1)
		}
		res, err := ParseSearchResult(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0].Ref != patterns[i] {
			t.Fatalf("frame %d: %+v, want the answer for %q", i, res, patterns[i])
		}
	}
	if got := srv.served.Value(); got != int64(len(patterns)) {
		t.Fatalf("%d requests served on the reader, want %d", got, len(patterns))
	}
	if n, sum := srv.writeFrames.Count(), srv.writeFrames.Sum(); n != 1 || sum != float64(len(patterns)) {
		t.Fatalf("%d writes of %v frames observed, want 1 of %d", n, sum, len(patterns))
	}
}

// TestBlockedClassifyDelaysNoInlineAnswer pins what stays off the
// reader: with a CLASSIFY blocked in the backend on a worker, a PING
// and an inline SEARCH on the same connection are still answered.
func TestBlockedClassifyDelaysNoInlineAnswer(t *testing.T) {
	cg := newClassifyGate()
	srv, addr := startServer(t, inliner{cg}, ServerConfig{})
	t.Cleanup(cg.open)
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	classified := make(chan error, 1)
	go func() {
		_, err := cl.Classify(context.Background(), "ACGTACGT", 0.5)
		classified <- err
	}()
	select {
	case <-cg.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the classify never reached the backend")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping behind a blocked classify: %v", err)
	}
	if res, err := cl.Search(ctx, "ACGT", false); err != nil || len(res.Matches) != 1 {
		t.Fatalf("search behind a blocked classify: %+v, %v", res, err)
	}
	if got := srv.served.Value(); got != 2 {
		t.Fatalf("%d requests served on the reader, want the ping and the search", got)
	}
	cg.open()
	if err := <-classified; err != nil {
		t.Fatalf("classify: %v", err)
	}
}

// TestInlineDuplicateOfWorkerID pins duplicate refusal across the two
// paths: an inline SEARCH reusing the id of a CLASSIFY still in flight
// on a worker is a protocol error that tears the connection down.
func TestInlineDuplicateOfWorkerID(t *testing.T) {
	cg := newClassifyGate()
	srv, addr := startServer(t, inliner{cg}, ServerConfig{})
	t.Cleanup(cg.open)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeFrame(OpClassify, 0, 77, AppendClassifyRequest(nil, []byte("ACGTACGT"), 0.5))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cg.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the classify never reached the backend")
	}
	if _, err := conn.Write(encodeFrame(OpSearch, 0, 77, AppendSearchRequest(nil, []byte("ACGT"), false))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the reader to refuse the duplicate", func() bool { return srv.protoCount.Value() >= 1 })
	cg.open()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	frames := readAllFrames(t, conn)
	if len(frames) == 0 {
		t.Fatal("no frames before close")
	}
	last := frames[len(frames)-1]
	if last.H.Opcode != OpErr {
		t.Fatalf("last frame not an error: %+v", last.H)
	}
	if se, err := ParseErrorPayload(last.P); err != nil || se.Msg != ErrDuplicateID.Error() {
		t.Fatalf("error payload %+v, %v; want %q", se, err, ErrDuplicateID)
	}
	if got := srv.served.Value(); got != 0 {
		t.Fatalf("%d requests served on the reader, want none", got)
	}
}

// TestInlineMalformedPayloadEndsWithErr pins the reader's protocol
// error: a SEARCH frame whose payload does not parse, arriving behind a
// good one in the same read, is answered with an ERR frame carrying its
// id, written after the good answer, and the connection closes.
func TestInlineMalformedPayloadEndsWithErr(t *testing.T) {
	_, addr := startServer(t, inliner{&fakeBackend{}}, ServerConfig{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := encodeFrame(OpSearch, 0, 1, AppendSearchRequest(nil, []byte("ACGT"), false))
	burst = append(burst, encodeFrame(OpSearch, 0, 2, []byte{9, 9, 9})...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	frames := readAllFrames(t, conn)
	if len(frames) != 2 {
		t.Fatalf("%d frames before close, want the answer and the ERR frame", len(frames))
	}
	if h := frames[0].H; h.RequestID != 1 || h.Opcode != OpSearch || h.Flags != FlagResponse {
		t.Fatalf("first frame %+v, want the answer to request 1", h)
	}
	if h := frames[1].H; h.RequestID != 2 || h.Opcode != OpErr || h.Flags&FlagError == 0 {
		t.Fatalf("last frame %+v, want an ERR frame for request 2", h)
	}
	if se, err := ParseErrorPayload(frames[1].P); err != nil || se.Code != 400 {
		t.Fatalf("error payload %+v, %v", se, err)
	}
}

// quietBackend answers every search with one prepared result, so that
// it allocates nothing itself.
type quietBackend struct {
	fakeBackend
	res SearchResult
}

func (q *quietBackend) Search(context.Context, []byte, bool) (SearchResult, error) { return q.res, nil }

// replayConn is a net.Conn whose reads replay src and whose writes all
// succeed.
type replayConn struct {
	net.Conn
	src *bytes.Reader
}

func (r *replayConn) Read(p []byte) (int, error)    { return r.src.Read(p) }
func (*replayConn) Write(p []byte) (int, error)     { return len(p), nil }
func (*replayConn) SetReadDeadline(time.Time) error { return nil }

// TestInlineFramingAllocs pins the reader path's steady state: with a
// backend that allocates nothing, decoding a pipelined burst of
// searches, answering each on the reader, holding the responses and
// writing them allocates nothing once the buffers have grown.
func TestInlineFramingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	qb := &quietBackend{res: SearchResult{Matches: []Match{{Ref: "chr1", Offset: 500, Strand: "+"}}, Probes: 3}}
	var burst []byte
	const frames = 2 * pipelineDepth // one write at pipelineDepth, one at the end
	for id := uint64(1); id <= frames; id++ {
		burst = append(burst, encodeFrame(OpSearch, 0, id, AppendSearchRequest(nil, []byte("ACGTACGTACGTACGT"), false))...)
	}
	rc := &replayConn{src: bytes.NewReader(burst)}
	c := &serverConn{
		srv:      NewServer(inliner{qb}, nil, ServerConfig{}),
		nc:       rc,
		br:       bufio.NewReaderSize(rc, 64<<10),
		ctx:      context.Background(),
		inflight: make(map[uint64]context.CancelFunc),
	}
	c.room.L = &c.wmu
	run := func() {
		rc.src.Reset(burst)
		c.br.Reset(rc)
		if err := c.readLoop(); err != io.EOF {
			t.Fatalf("readLoop: %v, want EOF", err)
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("the reader path allocates: %v allocs per burst of %d searches", allocs, frames)
	}
	if got := c.srv.served.Value(); got != 103*frames {
		t.Fatalf("%d requests served on the reader, want %d", got, 103*frames)
	}
}

// emfileListener fails its first fails Accepts with EMFILE, then
// hands out conn, then blocks until closed.
type emfileListener struct {
	fails  int
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *emfileListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *emfileListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeOutlivesFDExhaustion pins the accept backoff: accept errors
// from a process out of descriptors do not end Serve, and the
// connection accepted after them is served.
func TestServeOutlivesFDExhaustion(t *testing.T) {
	srv := NewServer(&fakeBackend{}, nil, ServerConfig{})
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	ln := &emfileListener{fails: 2, conn: serverEnd, closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	if err := clientEnd.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := clientEnd.Write(encodeFrame(OpPing, 0, 9, nil)); err != nil {
		t.Fatalf("ping: %v", err)
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(clientEnd, hdr[:]); err != nil {
		t.Fatalf("ping response: %v", err)
	}
	if h, err := ParseHeader(hdr[:]); err != nil || h.Opcode != OpPing || h.RequestID != 9 || h.PayloadLen != 0 {
		t.Fatalf("ping response %+v, %v", h, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve = %v, want %v", err, ErrServerClosed)
	}
}

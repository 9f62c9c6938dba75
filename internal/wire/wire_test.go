package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// crcOf seals a header prefix for tests that hand-corrupt fields.
func crcOf(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

func assertJSONEqual(t *testing.T, got, want interface{}) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Fatalf("mismatch:\n got %s\nwant %s", gb, wb)
	}
}

// fakeBackend answers canned results and records concurrency and the
// request contexts it is handed. block, when non-nil, stalls Search
// until the channel closes or the request context cancels.
type fakeBackend struct {
	block     chan struct{}
	inFly     atomic.Int64
	maxFly    atomic.Int64
	ctxErrs   atomic.Int64
	deadlines atomic.Int64 // requests whose context carried a deadline
}

func (f *fakeBackend) noteDeadline(ctx context.Context) {
	if _, ok := ctx.Deadline(); ok {
		f.deadlines.Add(1)
	}
}

func (f *fakeBackend) Search(ctx context.Context, pattern []byte, both bool) (SearchResult, error) {
	f.noteDeadline(ctx)
	n := f.inFly.Add(1)
	defer f.inFly.Add(-1)
	for {
		max := f.maxFly.Load()
		if n <= max || f.maxFly.CompareAndSwap(max, n) {
			break
		}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			f.ctxErrs.Add(1)
			return SearchResult{}, ctx.Err()
		}
	}
	if string(pattern) == "ERR" {
		return SearchResult{}, &StatusError{Code: 422, Msg: "planted failure"}
	}
	strand := "+"
	if both {
		strand = "-"
	}
	return SearchResult{
		Matches: []Match{{Ref: string(pattern), Offset: len(pattern), Strand: strand}},
		Probes:  1,
	}, nil
}

func (f *fakeBackend) Classify(ctx context.Context, read []byte, minFraction float64) (ClassifyResult, error) {
	f.noteDeadline(ctx)
	return ClassifyResult{Ref: string(read), Fraction: minFraction, Votes: 1, Windows: 2}, nil
}

func (f *fakeBackend) Stats() StatsResult {
	return StatsResult{Backend: "hdc", References: 1, Dim: 8192, Window: 32}
}

// startServer runs a wire server over a loopback listener and returns
// its address.
func startServer(t *testing.T, b Backend, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(b, nil, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func dialClient(t *testing.T, addr string, cfg ClientConfig) *Client {
	t.Helper()
	cl, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestRoundTrips(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{})
	ctx := context.Background()

	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	sr, err := cl.Search(ctx, "ACGT", false)
	if err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, sr, SearchResult{
		Matches: []Match{{Ref: "ACGT", Offset: 4, Strand: "+"}}, Probes: 1,
	})
	cr, err := cl.Classify(ctx, "READ", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ref != "READ" || cr.Fraction != 0.75 {
		t.Fatalf("classify: %+v", cr)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dim != 8192 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestApplicationErrorKeepsConnection(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	ctx := context.Background()
	_, err := cl.Search(ctx, "ERR", false)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 422 || se.Msg != "planted failure" {
		t.Fatalf("want StatusError 422, got %v", err)
	}
	// The connection survived the application error.
	if _, err := cl.Search(ctx, "ACGT", false); err != nil {
		t.Fatalf("connection did not survive: %v", err)
	}
}

// TestPipelining proves concurrent requests on ONE connection execute
// concurrently server-side: all in-flight searches block in the
// backend simultaneously before any response is written. depth is at
// most connWorkers.
func TestPipelining(t *testing.T) {
	const depth = 8
	fb := &fakeBackend{block: make(chan struct{})}
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Search(ctx, "ACGT", false); err != nil {
				t.Errorf("search: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for fb.inFly.Load() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight", fb.inFly.Load(), depth)
		}
		time.Sleep(time.Millisecond)
	}
	close(fb.block)
	wg.Wait()
	if max := fb.maxFly.Load(); max < depth {
		t.Fatalf("max concurrency %d, want %d", max, depth)
	}
}

// TestCancelVacates proves a client context cancellation reaches the
// server-side request context, and that the connection keeps working.
func TestCancelVacates(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	defer close(fb.block)
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Search(ctx, "ACGT", false)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fb.inFly.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The CANCEL frame cancels the server-side context.
	for fb.ctxErrs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server-side context never canceled")
		}
		time.Sleep(time.Millisecond)
	}
	// The connection survived; the late error response is discarded.
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("connection did not survive cancel: %v", err)
	}
}

// readAllFrames drains a raw connection, returning every decoded
// frame until EOF.
func readAllFrames(t *testing.T, conn net.Conn) []struct {
	H Header
	P []byte
} {
	t.Helper()
	var frames []struct {
		H Header
		P []byte
	}
	for {
		var hdr [HeaderSize]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return frames
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			t.Fatalf("server sent malformed header: %v", err)
		}
		p := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(conn, p); err != nil {
			t.Fatalf("server truncated payload: %v", err)
		}
		frames = append(frames, struct {
			H Header
			P []byte
		}{h, p})
	}
}

// TestCorruptionMatrix drives raw malformed bytes at a live server:
// every case must answer with an ERR frame (when a header was
// decodable enough to warrant one) and close the connection — the
// server must never panic and never leave the connection open.
func TestCorruptionMatrix(t *testing.T) {
	goodHeader := func(op Opcode, id uint64, payloadLen uint32) []byte {
		b := make([]byte, HeaderSize)
		PutHeader(b, Header{Opcode: op, RequestID: id, PayloadLen: payloadLen})
		return b
	}
	cases := []struct {
		name    string
		bytes   func() []byte
		wantErr bool // an ERR frame must arrive before the close
	}{
		{"truncated header", func() []byte {
			return goodHeader(OpPing, 1, 0)[:10]
		}, false},
		{"bad magic", func() []byte {
			b := goodHeader(OpPing, 1, 0)
			b[0] ^= 0xff
			return b
		}, true},
		{"bad version", func() []byte {
			b := goodHeader(OpPing, 1, 0)
			b[4] = Version + 9
			binary.LittleEndian.PutUint32(b[20:24], crcOf(b[:20]))
			return b
		}, true},
		{"bad crc", func() []byte {
			b := goodHeader(OpPing, 1, 0)
			b[21] ^= 0xff
			return b
		}, true},
		{"oversized payloadLen", func() []byte {
			return goodHeader(OpSearch, 1, 1<<20) // above the test MaxFrame
		}, true},
		{"bad opcode", func() []byte {
			return goodHeader(Opcode(200), 1, 0)
		}, true},
		{"retired batch opcode", func() []byte {
			return goodHeader(Opcode(3), 1, 0)
		}, true},
		{"response flags on request", func() []byte {
			b := make([]byte, HeaderSize)
			PutHeader(b, Header{Opcode: OpPing, Flags: FlagResponse, RequestID: 1})
			return b
		}, true},
		{"garbage search payload", func() []byte {
			payload := []byte{9, 9, 9} // strand byte out of range + truncated
			b := goodHeader(OpSearch, 1, uint32(len(payload)))
			return append(b, payload...)
		}, true},
	}
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, ServerConfig{MaxFrame: 1 << 16})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.bytes()); err != nil {
				t.Fatal(err)
			}
			// Half-close so a case the server cannot even attribute (a
			// truncated header) still ends promptly with EOF.
			if tcp, ok := conn.(*net.TCPConn); ok {
				if err := tcp.CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			frames := readAllFrames(t, conn)
			if !tc.wantErr {
				if len(frames) != 0 {
					t.Fatalf("unexpected frames: %+v", frames)
				}
				return
			}
			if len(frames) == 0 {
				t.Fatal("no ERR frame before close")
			}
			last := frames[len(frames)-1]
			if last.H.Opcode != OpErr || last.H.Flags&FlagError == 0 {
				t.Fatalf("last frame not an error: %+v", last.H)
			}
			if se, err := ParseErrorPayload(last.P); err != nil || se.Code != 400 {
				t.Fatalf("error payload: %+v, %v", se, err)
			}
		})
	}
}

// TestDuplicateRequestID pins the in-flight uniqueness rule: a second
// frame reusing a live requestID is a protocol error that tears the
// connection down (after the first request completes).
func TestDuplicateRequestID(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	srv, addr := startServer(t, fb, ServerConfig{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := encodeFrame(OpSearch, 0, 77, AppendSearchRequest(nil, []byte("ACGT"), false))
	// Two frames, same id, back to back. The first blocks in the
	// backend, so it is still in flight when the second arrives.
	if _, err := conn.Write(append(append([]byte(nil), frame...), frame...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fb.inFly.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	// Release the first request only once the reader has refused the
	// second: released earlier, it could leave the in-flight set first
	// and the second frame would be served as a new request.
	waitFor(t, "the reader to refuse the duplicate", func() bool { return srv.protoCount.Value() >= 1 })
	close(fb.block) // let the first request finish so the conn can drain
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
	se, err := ParseErrorPayload(last.P)
	if err != nil {
		t.Fatal(err)
	}
	if se.Msg != ErrDuplicateID.Error() {
		t.Fatalf("error message %q", se.Msg)
	}
}

// TestShutdownDrains proves Shutdown lets in-flight requests finish
// before the connection closes.
func TestShutdownDrains(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	srv, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})

	errc := make(chan error, 1)
	go func() {
		_, err := cl.Search(context.Background(), "ACGT", false)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fb.inFly.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(10 * time.Millisecond) // let shutdown nudge the reader
	close(fb.block)
	if err := <-errc; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRequestContextHasNoDeadline pins that a wire request's context
// carries no deadline on any request shape that reaches the backend:
// none of them reads its context while it runs, so a per-request timer
// would be armed and never observed.
func TestRequestContextHasNoDeadline(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	ctx := context.Background()
	for _, both := range []bool{false, true} {
		if _, err := cl.Search(ctx, "ACGT", both); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Classify(ctx, "ACGTACGT", 0.5); err != nil {
		t.Fatal(err)
	}
	if n := fb.deadlines.Load(); n != 0 {
		t.Fatalf("%d of 3 request contexts carried a deadline", n)
	}
}

// TestShutdownForceCloseCancelsInflight pins Shutdown's force-close: a
// Shutdown whose context has expired cancels the context of every
// request still blocked in the backend, waits for them, and returns
// the context's error.
func TestShutdownForceCloseCancelsInflight(t *testing.T) {
	const n = 4
	fb := &fakeBackend{block: make(chan struct{})}
	defer close(fb.block)
	srv, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The request's context is canceled and then its
			// connection closes: either way the answer is an error.
			if _, err := cl.Search(context.Background(), "ACGT", false); err == nil {
				t.Error("a search succeeded through a force-close")
			}
		}()
	}
	waitFor(t, "every request to block in the backend", func() bool { return fb.inFly.Load() == n })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want %v", err, context.Canceled)
	}
	if got := fb.ctxErrs.Load(); got != n {
		t.Fatalf("%d of %d in-flight request contexts canceled", got, n)
	}
	wg.Wait()
}

// TestMetricsSeries asserts the wire series register and move.
func TestMetricsSeries(t *testing.T) {
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	ctx := context.Background()
	if _, err := cl.Search(ctx, "ACGT", false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.frames[OpSearch].Value(); got != 1 {
		t.Fatalf("search frames %d", got)
	}
	if got := srv.frames[OpPing].Value(); got != 1 {
		t.Fatalf("ping frames %d", got)
	}
	if got := srv.connGauge.Value(); got != 1 {
		t.Fatalf("connections %d", got)
	}
	if got := srv.frameSecs.Count(); got != 2 {
		t.Fatalf("frame latency observations %d", got)
	}
	if got := srv.depth.Count(); got != 2 {
		t.Fatalf("depth observations %d", got)
	}
}

// TestClientRedial proves the pool replaces a dead connection.
func TestClientRedial(t *testing.T) {
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 1})
	ctx := context.Background()
	if _, err := cl.Search(ctx, "ACGT", false); err != nil {
		t.Fatal(err)
	}
	// Sever every server-side connection; the client's next request
	// must transparently redial.
	srv.mu.Lock()
	for c := range srv.conns {
		c.nc.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Search(ctx, "ACGT", false); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackendSeesCopies pins the borrow contract indirectly: the
// fake backend converts patterns with string(...) exactly like the
// real adapter, so a reused frame buffer cannot corrupt results.
func TestConcurrentMixedTraffic(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, ServerConfig{})
	cl := dialClient(t, addr, ClientConfig{Conns: 2})
	ctx := context.Background()
	patterns := []string{"AAAA", "CCCCCCCC", "GGGGGGGGGGGG", "TTTTTTTTTTTTTTTT"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pat := patterns[(w+i)%len(patterns)]
				res, err := cl.Search(ctx, pat, false)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				want := SearchResult{
					Matches: []Match{{Ref: pat, Offset: len(pat), Strand: "+"}}, Probes: 1,
				}
				if !reflect.DeepEqual(res, want) {
					t.Errorf("cross-talk: got %+v want %+v", res, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// statsPeer serves one connection that answers every request frame
// with a response of the same opcode carrying payload, and returns its
// address: a server whose STATS record this client has not seen.
func statsPeer(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [HeaderSize]byte
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			h, err := ParseHeader(hdr[:])
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := io.CopyN(io.Discard, conn, int64(h.PayloadLen)); err != nil {
				return
			}
			frame, off := BeginFrame(nil)
			frame = append(frame, payload...)
			FinishFrame(frame, off, h.Opcode, FlagResponse, h.RequestID)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestClientStatsPayload feeds Client.Stats payloads it did not
// produce: a key it does not know is ignored and the known fields come
// back; a payload that is not a JSON stats object, or is larger than
// DefaultMaxFrame, is an error, never a panic.
func TestClientStatsPayload(t *testing.T) {
	ctx := context.Background()
	cl := dialClient(t, statsPeer(t, []byte(`{"backend":"hdc","references":3,"generation":7,"dim":8192}`)), ClientConfig{Conns: 1})
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, st, StatsResult{Backend: "hdc", References: 3, Dim: 8192})

	// The last payload is a valid stats object one byte past the
	// response frame cap, so only the cap refuses it.
	oversized := `{"references":3}` + strings.Repeat(" ", DefaultMaxFrame+1-len(`{"references":3}`))
	for _, bad := range []string{"", "\x00\x01\x02", `{"references":`, `[1,2]`, `{"references":"three"}`, oversized} {
		cl := dialClient(t, statsPeer(t, []byte(bad)), ClientConfig{Conns: 1})
		if st, err := cl.Stats(ctx); err == nil {
			t.Errorf("payload %.40q: no error, got %+v", bad, st)
		}
	}
}

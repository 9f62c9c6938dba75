package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// denseServer builds a server over a deliberately over-sharded library
// (tiny bucket capacity => many buckets => slow scans) so that a large
// batch takes long enough to cancel or drain mid-flight.
func denseServer(t *testing.T, opts ...Option) (*Server, *genome.Sequence) {
	t.Helper()
	ref := genome.Random(3000, rng.New(91))
	lib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 32, Capacity: 4, Seed: 92,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	s, err := New(lib, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, ref
}

func batchBody(t *testing.T, ref *genome.Sequence, n int) []byte {
	t.Helper()
	var req BatchRequest
	for i := 0; i < n; i++ {
		off := (i * 7) % (ref.Len() - 32)
		req.Patterns = append(req.Patterns, ref.Slice(off, off+32).String())
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func countBatchErrors(br *wire.BatchResult) (done, failed int) {
	for _, r := range br.Results {
		if r.Error == "" {
			done++
		} else {
			failed++
		}
	}
	return done, failed
}

// TestBatchDeadlineCancels exercises the deadline execBatch arms around
// its one Search: with an (absurdly) tight RequestTimeout every batch
// item is marked canceled, the response still arrives as 200 with
// canceled=true, and no probes were spent on the library.
func TestBatchDeadlineCancels(t *testing.T) {
	s, ref := denseServer(t, WithConfig(Config{RequestTimeout: time.Nanosecond}))
	before := s.lib.Counters().BucketProbes

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(batchBody(t, ref, 8)))
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial results", rec.Code)
	}
	var br wire.BatchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if !br.Canceled {
		t.Fatalf("canceled flag not set: %+v", br)
	}
	done, failed := countBatchErrors(&br)
	if done != 0 || failed != 8 {
		t.Fatalf("done=%d failed=%d, want all 8 canceled", done, failed)
	}
	if after := s.lib.Counters().BucketProbes; after != before {
		t.Fatalf("expired request still probed the library (%d probes)", after-before)
	}
}

// TestBatchClientCancelPartial cancels the request context while the
// batch is mid-flight and checks three things: the handler returns a 200
// partial response with canceled=true, some results completed while
// others carry the context error, and the library's probe counter stops
// advancing once the handler returns (workers actually quit).
func TestBatchClientCancelPartial(t *testing.T) {
	s, ref := denseServer(t)
	body := batchBody(t, ref, 1024)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.lib = cancelOnProbe{Index: s.lib, cancel: cancel}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)).WithContext(ctx)
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial results", rec.Code)
	}
	var br wire.BatchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if !br.Canceled {
		t.Fatalf("canceled flag not set after a mid-flight cancel: %+v", br)
	}

	done, failed := countBatchErrors(&br)
	if failed == 0 {
		t.Fatalf("canceled batch has no canceled items (done=%d)", done)
	}
	if done == 0 {
		t.Fatalf("canceled batch has no completed items (failed=%d)", failed)
	}
	for _, r := range br.Results {
		if r.Error != "" && !strings.Contains(r.Error, "context canceled") {
			t.Fatalf("unexpected item error %q", r.Error)
		}
	}

	// Workers must have quit: the probe counter is static after return.
	after := s.lib.Counters().BucketProbes
	time.Sleep(30 * time.Millisecond)
	if later := s.lib.Counters().BucketProbes; later != after {
		t.Fatalf("probes still advancing after handler returned: %d -> %d", after, later)
	}
}

// cancelOnProbe passes batches through to the index under a context
// that cancels the request the first time it is checked after the batch
// has probed the library. The cancel then lands mid-flight on every
// run, however late a watcher goroutine would be scheduled.
type cancelOnProbe struct {
	core.Index
	cancel context.CancelFunc
}

func (c cancelOnProbe) Search(ctx context.Context, q core.Query, a *core.Answer) error {
	return c.Index.Search(probeCtx{ctx, c, c.Counters().BucketProbes}, q, a)
}

// probeCtx is the request context as cancelOnProbe hands it on.
type probeCtx struct {
	context.Context
	c     cancelOnProbe
	start int64
}

func (p probeCtx) Err() error {
	if p.c.Counters().BucketProbes != p.start {
		p.c.cancel()
	}
	return p.Context.Err()
}

// TestMetricsEndpoint drives traffic through the handler and checks the
// Prometheus rendering: per-endpoint counters with status classes,
// latency histogram buckets, and the core library counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, ref := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: ref.Slice(10, 42).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// One client error too, to get a 4xx series.
	if got := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: ""}); got.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pattern status %d", got.StatusCode)
	}
	// A batch runs the query-blocked scan, advancing the blocked-probe
	// counters.
	if got := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Patterns: []string{ref.Slice(10, 42).String(), ref.Slice(50, 82).String()},
	}); got.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", got.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		`biohd_http_requests_total{path="/v1/search",status="2xx"} 1`,
		`biohd_http_requests_total{path="/v1/search",status="4xx"} 1`,
		`biohd_http_requests_total{path="/healthz",status="2xx"} 1`,
		`biohd_http_request_seconds_bucket{path="/v1/search",le="+Inf"} 2`,
		"# TYPE biohd_http_request_seconds histogram",
		"# TYPE biohd_core_bucket_probes_total counter",
		"# TYPE biohd_core_early_abandons_total counter",
		"# TYPE biohd_core_sketch_rows_total counter",
		"# TYPE biohd_core_sketch_survivors_total counter",
		"# TYPE biohd_core_sketch_predicted_survivor_ratio gauge",
		"# TYPE biohd_core_batch_cancellations_total counter",
		"# TYPE biohd_core_blocked_probes_total counter",
		"# TYPE biohd_core_blocked_windows_total counter",
		// The /metrics request itself is mid-flight while rendering.
		"biohd_http_inflight_requests 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}

	// The successful search probed real buckets and the batch ran
	// blocked scans over both patterns; the exposed core counters must
	// reflect that.
	var probes, blockedProbes, blockedWindows int64
	for _, line := range strings.Split(out, "\n") {
		for _, c := range []struct {
			name string
			dst  *int64
		}{
			{"biohd_core_bucket_probes_total", &probes},
			{"biohd_core_blocked_probes_total", &blockedProbes},
			{"biohd_core_blocked_windows_total", &blockedWindows},
		} {
			if strings.HasPrefix(line, c.name+" ") {
				if _, err := fmt.Sscanf(line, c.name+" %d", c.dst); err != nil {
					t.Fatalf("unparsable counter line %q: %v", line, err)
				}
			}
		}
	}
	if probes <= 0 {
		t.Fatalf("biohd_core_bucket_probes_total = %d, want > 0", probes)
	}
	if blockedProbes <= 0 {
		t.Fatalf("biohd_core_blocked_probes_total = %d, want > 0", blockedProbes)
	}
	if blockedWindows < blockedProbes {
		t.Fatalf("blocked windows %d < blocked probes %d: every blocked scan serves at least one window",
			blockedWindows, blockedProbes)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks a slow batch
// in flight, then calls Shutdown: the in-flight request must complete
// with a full (un-canceled) 200 response before Shutdown returns, and
// the serve loop must exit with ErrServerClosed.
func TestGracefulShutdownDrains(t *testing.T) {
	// Large enough to stay in flight across several of the 1 ms polls
	// below: 1024 patterns took 9 ms until the exact encoder became a
	// vector parity fold and 4 ms after, which a loaded host could miss.
	const slowBatch = 4096
	s, ref := denseServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.HTTPServer(ln.Addr().String())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	type result struct {
		status int
		br     wire.BatchResult
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/batch",
			"application/json", bytes.NewReader(batchBody(t, ref, slowBatch)))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var br wire.BatchResult
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			resc <- result{err: err}
			return
		}
		resc <- result{status: resp.StatusCode, br: br}
	}()

	// Wait until the batch is demonstrably in flight before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK || res.br.Canceled {
		t.Fatalf("drained request: status=%d canceled=%v, want clean 200", res.status, res.br.Canceled)
	}
	if done, failed := countBatchErrors(&res.br); failed != 0 || done != slowBatch {
		t.Fatalf("drained batch truncated: done=%d failed=%d", done, failed)
	}
}

// TestSketchTelemetry serves libraries whose model engages the probe
// cascade, one of each encoding, and checks the quality model is
// monitorable from outside: the rows' and the plane's width, the plane's
// resident bytes (none where the rows are their sketches, one window a
// row: the plane is the arena) and the
// current view's predicted survivor ratio in /v1/stats and the wire
// STATS result, and on /metrics the observed sketch counters tracking
// that prediction. The approximate library's prediction follows its
// calibrated threshold and is some 2·10⁻⁴, so it takes more probes to
// resolve, and only every twentieth is a member: a member's own row
// survives by design, and in a library this small one row in 2 056 is
// more than the non-member rows the gauge predicts.
func TestSketchTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name           string
		params         core.Params
		refLen         int
		probes, every  int // searches sent; every `every`-th is a member window
		rowWords       int
		words          int
		planeWords     int // sketch plane words resident per bucket
		predLo, predHi float64
	}{
		{"exact", core.Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 92}, 6000, 40, 2, 128, 40, 40, 0.01, 0.03},
		{"approximate", core.Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 42}, 2087, 400, 20, 16, 16, 0, 5e-5, 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := genome.Random(tc.refLen, rng.New(91))
			lib, err := core.NewLibrary(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
				t.Fatal(err)
			}
			lib.Freeze()
			s, err := New(lib)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			src := rng.New(93)
			for i := 0; i < tc.probes; i++ {
				pat := genome.Random(32, src)
				if i%tc.every == 0 {
					at := i * (tc.refLen - 32) / tc.probes
					pat = ref.Slice(at, at+32)
				}
				resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pat.String()})
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("search status %d", resp.StatusCode)
				}
			}

			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats wire.StatsResult
			decodeInto(t, resp, &stats)
			if stats.RowWords != tc.rowWords || stats.SketchWords != tc.words || stats.SketchBytes != int64(stats.Buckets*tc.planeWords*8) ||
				stats.SketchSurvivorRatio < tc.predLo || stats.SketchSurvivorRatio > tc.predHi {
				t.Fatalf("sketch fields of /v1/stats: %+v", stats)
			}
			if ws := s.WireBackend().Stats(); ws.RowWords != stats.RowWords || ws.SketchWords != stats.SketchWords || ws.SketchBytes != stats.SketchBytes ||
				ws.SketchSurvivorRatio != stats.SketchSurvivorRatio {
				t.Fatalf("wire STATS sketch fields %+v differ from /v1/stats %+v", ws, stats)
			}

			mresp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			raw, err := io.ReadAll(mresp.Body)
			if err != nil {
				t.Fatal(err)
			}
			series := map[string]float64{}
			for _, line := range strings.Split(string(raw), "\n") {
				var name string
				var v float64
				if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 && strings.HasPrefix(name, "biohd_core_sketch_") {
					series[name] = v
				}
			}
			rows, surv := series["biohd_core_sketch_rows_total"], series["biohd_core_sketch_survivors_total"]
			pred := series["biohd_core_sketch_predicted_survivor_ratio"]
			if pred != stats.SketchSurvivorRatio {
				t.Fatalf("predicted ratio gauge %g, /v1/stats says %g", pred, stats.SketchSurvivorRatio)
			}
			if want := float64(tc.probes * stats.Buckets); rows != want {
				t.Fatalf("sketch rows %g, want %d probes x %d buckets = %g", rows, tc.probes, stats.Buckets, want)
			}
			if observed := surv / rows; observed < pred/2 || observed > 2*pred {
				t.Fatalf("observed survivor ratio %g (%g of %g) against predicted %g", observed, surv, rows, pred)
			}
			t.Logf("observed survivor ratio %g (%g of %g), predicted %g", surv/rows, surv, rows, pred)
		})
	}
}

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Value() }

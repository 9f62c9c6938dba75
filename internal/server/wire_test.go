package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// wirePair builds one server and exposes it over BOTH transports:
// the HTTP JSON API and the binary wire protocol, sharing the exec
// layer and the metrics registry.
func wirePair(t *testing.T) (*httptest.Server, *wire.Client, *genome.Sequence) {
	t.Helper()
	lib, ref := chr1Library(t, core.Params{Dim: 8192, Window: 32, Seed: 92})
	ts, cl := wirePairOver(t, lib)
	return ts, cl, ref
}

// chr1Library builds a frozen HDC library over one 3000-base
// reference, "chr1".
func chr1Library(t *testing.T, p core.Params) (*core.Library, *genome.Sequence) {
	t.Helper()
	ref := genome.Random(3000, rng.New(91))
	lib, err := core.NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return lib, ref
}

// wirePairOver is wirePair for an index the caller built (or opened).
func wirePairOver(t *testing.T, idx core.Index) (*httptest.Server, *wire.Client) {
	t.Helper()
	ts, addr := wireServers(t, idx)
	cl, err := wire.Dial(addr, wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ts, cl
}

// wireServers serves idx over HTTP and over the wire protocol, and
// returns the HTTP server and the wire listener's address.
func wireServers(t *testing.T, idx core.Index) (*httptest.Server, string) {
	t.Helper()
	s, err := New(idx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ws := wire.NewServer(s.WireBackend(), s.Registry(), wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ws.Serve(ln); !errors.Is(err, wire.ErrServerClosed) {
			t.Errorf("wire serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ws.Close()
		<-done
	})
	return ts, ln.Addr().String()
}

// rawStats sends one STATS frame over a bare connection and returns
// the response payload as the server wrote it, with no client struct
// in between.
func rawStats(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	frame, off := wire.BeginFrame(nil)
	wire.FinishFrame(frame, off, wire.OpStats, 0, 1)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		t.Fatal(err)
	}
	if h.Opcode != wire.OpStats || h.Flags != wire.FlagResponse || h.RequestID != 1 {
		t.Fatalf("STATS answered with %+v", h)
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// httpBody POSTs (or GETs when body is nil) and returns status plus
// the body with the encoder's trailing newline trimmed — the exact
// bytes json.Marshal would have produced.
func httpBody(t *testing.T, url string, body interface{}) (int, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp = postJSON(t, url, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(strings.TrimSuffix(string(data), "\n"))
}

func marshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGoldenEquivalence pins byte-identical answers across the
// two transports for every request kind, including error taxonomy.
func TestWireGoldenEquivalence(t *testing.T) {
	ts, cl, ref := wirePair(t)
	ctx := context.Background()

	t.Run("search forward", func(t *testing.T) {
		pat := ref.Slice(500, 532).String()
		status, hb := httpBody(t, ts.URL+"/v1/search", SearchRequest{Pattern: pat})
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		wr, err := cl.Search(ctx, pat, false)
		if err != nil {
			t.Fatal(err)
		}
		if wb := marshal(t, wr); string(wb) != string(hb) {
			t.Fatalf("transports differ:\nhttp %s\nwire %s", hb, wb)
		}
		if len(wr.Matches) == 0 {
			t.Fatal("planted pattern not found")
		}
	})

	t.Run("search both strands", func(t *testing.T) {
		pat := ref.Slice(800, 832).ReverseComplement().String()
		status, hb := httpBody(t, ts.URL+"/v1/search",
			SearchRequest{Pattern: pat, Strands: "both"})
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		wr, err := cl.Search(ctx, pat, true)
		if err != nil {
			t.Fatal(err)
		}
		if wb := marshal(t, wr); string(wb) != string(hb) {
			t.Fatalf("transports differ:\nhttp %s\nwire %s", hb, wb)
		}
	})

	t.Run("search no matches", func(t *testing.T) {
		pat := strings.Repeat("ACGT", 8) // almost surely absent
		status, hb := httpBody(t, ts.URL+"/v1/search", SearchRequest{Pattern: pat})
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		wr, err := cl.Search(ctx, pat, false)
		if err != nil {
			t.Fatal(err)
		}
		if wb := marshal(t, wr); string(wb) != string(hb) {
			t.Fatalf("transports differ:\nhttp %s\nwire %s", hb, wb)
		}
	})

	t.Run("classify", func(t *testing.T) {
		read := ref.Slice(1000, 1300).String()
		status, hb := httpBody(t, ts.URL+"/v1/classify", ClassifyRequest{Read: read})
		if status != http.StatusOK {
			t.Fatalf("http status %d: %s", status, hb)
		}
		wr, err := cl.Classify(ctx, read, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wb := marshal(t, wr); string(wb) != string(hb) {
			t.Fatalf("transports differ:\nhttp %s\nwire %s", hb, wb)
		}
	})

	t.Run("batch with malformed item", func(t *testing.T) {
		pats := []string{
			ref.Slice(200, 232).String(),
			"NOTDNA!",
			ref.Slice(1200, 1232).String(),
		}
		status, hb := httpBody(t, ts.URL+"/v1/batch", BatchRequest{Patterns: pats})
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		var hr wire.BatchResult
		if err := json.Unmarshal(hb, &hr); err != nil {
			t.Fatal(err)
		}
		if len(hr.Results) != len(pats) {
			t.Fatalf("http answered %d items for %d patterns", len(hr.Results), len(pats))
		}
		// The wire protocol sends many patterns as pipelined SEARCH
		// frames: each batch item must be its pattern's SEARCH answer.
		for i, pat := range pats {
			item := hr.Results[i]
			wr, err := cl.Search(ctx, pat, false)
			var se *wire.StatusError
			switch {
			case errors.As(err, &se):
				if item.Error != se.Msg {
					t.Fatalf("item %d: http error %q, wire error %q", i, item.Error, se.Msg)
				}
			case err != nil:
				t.Fatal(err)
			default:
				if item.Error != "" {
					t.Fatalf("item %d: http error %q, wire answered", i, item.Error)
				}
				if hm, wm := marshal(t, item.Matches), marshal(t, wr.Matches); string(hm) != string(wm) {
					t.Fatalf("item %d differs:\nhttp %s\nwire %s", i, hm, wm)
				}
			}
		}
		if hr.Results[1].Error == "" || len(hr.Results[0].Matches) == 0 {
			t.Fatalf("want the malformed item's error and the planted pattern's match: %s", hb)
		}
	})

	t.Run("stats", func(t *testing.T) {
		status, hb := httpBody(t, ts.URL+"/v1/stats", nil)
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		wr, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if wb := marshal(t, wr); string(wb) != string(hb) {
			t.Fatalf("transports differ:\nhttp %s\nwire %s", hb, wb)
		}
	})

	t.Run("error taxonomy", func(t *testing.T) {
		cases := []struct {
			name string
			body interface{}
			do   func() error
		}{
			{"empty pattern", SearchRequest{}, func() error {
				_, err := cl.Search(ctx, "", false)
				return err
			}},
			{"bad base", SearchRequest{Pattern: "QQQQ"}, func() error {
				_, err := cl.Search(ctx, "QQQQ", false)
				return err
			}},
			{"short pattern", SearchRequest{Pattern: "ACGT"}, func() error {
				_, err := cl.Search(ctx, "ACGT", false)
				return err
			}},
			{"minFraction above 1", ClassifyRequest{Read: strings.Repeat("ACGT", 20), MinFraction: 1.5}, func() error {
				_, err := cl.Classify(ctx, strings.Repeat("ACGT", 20), 1.5)
				return err
			}},
			// A batch body naming workers is an unknown field. The wire
			// protocol has no batch to compare.
			{"batch names workers", map[string]any{"patterns": []string{strings.Repeat("ACGT", 8)}, "workers": 2}, nil},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				url := ts.URL + "/v1/search"
				switch tc.body.(type) {
				case ClassifyRequest:
					url = ts.URL + "/v1/classify"
				case map[string]any:
					url = ts.URL + "/v1/batch"
				}
				status, hb := httpBody(t, url, tc.body)
				if status == http.StatusOK {
					t.Fatalf("http accepted: %s", hb)
				}
				var eb errorBody
				if err := json.Unmarshal(hb, &eb); err != nil {
					t.Fatal(err)
				}
				if tc.do == nil {
					if status != http.StatusBadRequest {
						t.Fatalf("http status %d, want 400: %s", status, eb.Error)
					}
					return
				}
				err := tc.do()
				var se *wire.StatusError
				if !errors.As(err, &se) {
					t.Fatalf("wire error not a StatusError: %v", err)
				}
				if se.Code != status || se.Msg != eb.Error {
					t.Fatalf("taxonomy differs: http %d %q, wire %d %q",
						status, eb.Error, se.Code, se.Msg)
				}
			})
		}
	})
}

// TestWireGoldenEquivalenceConcurrent repeats the byte-identical
// check under 32-way concurrent pipelined wire traffic — exactly the
// shape that fills the coalescer's probe blocks — against HTTP
// answers captured up front. Run with -race in CI.
func TestWireGoldenEquivalenceConcurrent(t *testing.T) {
	ts, cl, ref := wirePair(t)
	ctx := context.Background()

	offs := []int{100, 400, 700, 1000, 1300, 1600, 1900, 2200}
	pats := make([]string, len(offs))
	want := make([][]byte, len(offs))
	for i, off := range offs {
		pats[i] = ref.Slice(off, off+32).String()
		status, hb := httpBody(t, ts.URL+"/v1/search", SearchRequest{Pattern: pats[i]})
		if status != http.StatusOK {
			t.Fatalf("http status %d", status)
		}
		want[i] = hb
	}

	const workers = 32
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(pats)
				wr, err := cl.Search(ctx, pats[k], false)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if wb := marshal(t, wr); string(wb) != string(want[k]) {
					t.Errorf("worker %d diverged on %q:\nhttp %s\nwire %s",
						w, pats[k], want[k], wb)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWireMetricsOnSharedRegistry asserts the wire series render on
// the HTTP /metrics endpoint, alongside the resident-bytes gauge.
func TestWireMetricsOnSharedRegistry(t *testing.T) {
	ts, cl, ref := wirePair(t)
	// The default client pool holds two connections and deals requests
	// round-robin, so two searches send one down each. A connection is
	// registered before its first frame is read, and a request's frame,
	// latency and depth samples are taken before its response is queued,
	// so once both answers are back every series below is final.
	for i := 0; i < 2; i++ {
		if _, err := cl.Search(context.Background(), ref.Slice(500, 532).String(), false); err != nil {
			t.Fatal(err)
		}
	}
	status, body := httpBody(t, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(body)
	for _, series := range []string{
		"biohd_wire_connections 2",
		`biohd_wire_frames_total{opcode="search"} 2`,
		"biohd_wire_frame_seconds_count 2",
		"biohd_wire_pipeline_depth_count 2",
		"biohd_library_resident_bytes",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestMappedCOBSStats serves a cobs container opened MapArena and reads
// the storage tier back through every stats surface — the same structs
// and series the HDC library reports through, no field of their own.
func TestMappedCOBSStats(t *testing.T) {
	idx, ref, size := mappedCOBS(t)
	ts, cl := wirePairOver(t, idx)
	pat := ref.Slice(500, 532).String()
	if res, err := cl.Search(context.Background(), pat, false); err != nil || len(res.Matches) == 0 {
		t.Fatalf("wire search on the mapped index: %+v, %v", res, err)
	}
	if status, _ := httpBody(t, ts.URL+"/v1/search", map[string]string{"pattern": pat}); status != http.StatusOK {
		t.Fatalf("http search status %d", status)
	}

	_, body := httpBody(t, ts.URL+"/v1/stats", nil)
	var stats wire.StatsResult
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	ws, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for via, got := range map[string][3]int64{
		"/v1/stats":  {stats.MappedBytes, stats.ResidentBytes, stats.MemBytes},
		"wire STATS": {ws.MappedBytes, ws.ResidentBytes, ws.MemBytes},
	} {
		if got[0] != size {
			t.Errorf("%s: mappedBytes %d, the file is %d bytes", via, got[0], size)
		}
		if got[1] <= 0 || got[1] > size {
			t.Errorf("%s: residentBytes %d outside (0, %d]", via, got[1], size)
		}
		if got[2] <= 0 {
			t.Errorf("%s: memoryBytes %d", via, got[2])
		}
	}
	if stats.Backend != cobs.BackendName || ws.Backend != cobs.BackendName {
		t.Errorf("backend %q / %q", stats.Backend, ws.Backend)
	}
	_, body = httpBody(t, ts.URL+"/metrics", nil)
	text := string(body)
	for _, series := range []string{
		"biohd_core_mapped_scans_total 2\n", // one segment, two searches
		"biohd_core_heap_scans_total 0\n",
		fmt.Sprintf("biohd_library_mapped_bytes %d\n", size),
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestStatsFrameIsStatsBody reads a STATS frame's payload as raw
// bytes and requires it to be the /v1/stats body, on both backends and
// both storage tiers: one encoding of the stats record, whatever keys
// it has.
func TestStatsFrameIsStatsBody(t *testing.T) {
	indexes := map[string]func(t *testing.T) core.Index{
		"hdc exact": func(t *testing.T) core.Index {
			lib, _ := chr1Library(t, core.Params{Dim: 8192, Window: 32, Seed: 92})
			return lib
		},
		"hdc approximate": func(t *testing.T) core.Index {
			lib, _ := chr1Library(t, core.Params{Dim: 1024, Window: 32, Approx: true, MutTolerance: 2, Seed: 92})
			return lib
		},
		"cobs heap": func(t *testing.T) core.Index {
			x, err := cobs.New(cobs.Params{Window: 32, RowBits: 4096})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Add(genome.Record{ID: "chr1", Seq: genome.Random(3000, rng.New(93))}); err != nil {
				t.Fatal(err)
			}
			x.Freeze()
			return x
		},
		"cobs mapped": func(t *testing.T) core.Index {
			idx, _, _ := mappedCOBS(t)
			return idx
		},
	}
	for name, build := range indexes {
		t.Run(name, func(t *testing.T) {
			ts, addr := wireServers(t, build(t))
			payload := rawStats(t, addr)
			status, body := httpBody(t, ts.URL+"/v1/stats", nil)
			if status != http.StatusOK {
				t.Fatalf("http status %d", status)
			}
			if string(payload) != string(body) {
				t.Fatalf("STATS payload is not the /v1/stats body:\nwire %q\nhttp %q", payload, body)
			}
		})
	}
}

// TestWireClassifyNonFiniteFraction sends minFraction values HTTP's
// JSON cannot carry. A read that classifies at the default must get a
// 400 naming the value, not a 404 from a support test NaN never passes.
func TestWireClassifyNonFiniteFraction(t *testing.T) {
	_, cl, ref := wirePair(t)
	ctx := context.Background()
	read := ref.Slice(1000, 1300).String()
	if res, err := cl.Classify(ctx, read, 0); err != nil || res.Fraction != 1 {
		t.Fatalf("read at the default fraction: %+v, %v", res, err)
	}
	for _, frac := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := cl.Classify(ctx, read, frac)
		var se *wire.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("minFraction %v: %v, want a StatusError", frac, err)
		}
		if want := fmt.Sprintf("minFraction %v must be in (0, 1]", frac); se.Code != http.StatusBadRequest || se.Msg != want {
			t.Errorf("minFraction %v: %d %q, want 400 %q", frac, se.Code, se.Msg, want)
		}
	}
}

// mappedCOBS writes a frozen cobs index over one 3000-base reference,
// "chr1", to a v3 file and opens it MapArena. It returns the index,
// the reference and the file's size, and skips the test where the
// platform or build cannot map library files.
func mappedCOBS(t *testing.T) (core.Index, *genome.Sequence, int64) {
	t.Helper()
	x, err := cobs.New(cobs.Params{Window: 32, RowBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ref := genome.Random(3000, rng.New(93))
	if err := x.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	x.Freeze()
	path := filepath.Join(t.TempDir(), "cobs.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	size, err := x.WriteToV3(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := core.OpenLibraryFile(path, core.MapArena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	if !idx.Mapped() {
		t.Skip("this platform or build cannot map library files")
	}
	return idx, ref, size
}

// TestStatsResidentBytes pins the residentBytes stats field: a heap
// library reports its footprint.
func TestStatsResidentBytes(t *testing.T) {
	ts, _ := testServer(t)
	status, body := httpBody(t, ts.URL+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var stats wire.StatsResult
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ResidentBytes <= 0 {
		t.Fatalf("residentBytes %d, want > 0 for a heap library", stats.ResidentBytes)
	}
	if stats.ResidentBytes != stats.MemBytes {
		t.Fatalf("heap residentBytes %d != memoryBytes %d", stats.ResidentBytes, stats.MemBytes)
	}
}

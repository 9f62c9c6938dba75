package server

import (
	"fmt"
	"io"
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

// doRequest issues a method+path request with an optional JSON body.
func doRequest(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// searchIDs runs a forward search and returns the matched reference IDs.
func searchIDs(t *testing.T, url, pattern string) map[string]bool {
	t.Helper()
	resp := postJSON(t, url+"/v1/search", SearchRequest{Pattern: pattern})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var sr wire.SearchResult
	decodeInto(t, resp, &sr)
	ids := map[string]bool{}
	for _, m := range sr.Matches {
		ids[m.Ref] = true
	}
	return ids
}

// TestIngestRemoveCompactLifecycle drives a reference through the whole
// mutable-library lifecycle over HTTP: ingest, search, tombstone,
// search again, compact — with the library serving throughout.
func TestIngestRemoveCompactLifecycle(t *testing.T) {
	ts, _ := testServer(t)
	ref := genome.Random(500, rng.New(85))

	// Ingest a new reference into the live segment.
	resp := postJSON(t, ts.URL+"/v1/refs", AddRefRequest{
		ID: "plasmid", Description: "live ingest", Sequence: ref.String(),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ar AddRefResponse
	decodeInto(t, resp, &ar)
	if ar.References != 2 || ar.Segments < 2 {
		t.Fatalf("ingest response implausible: %+v", ar)
	}

	// The ingested reference is immediately searchable.
	pat := ref.Slice(100, 132).String()
	if ids := searchIDs(t, ts.URL, pat); !ids["plasmid"] {
		t.Fatalf("ingested reference not searchable: %v", ids)
	}

	// A duplicate live ID is rejected.
	if resp := postJSON(t, ts.URL+"/v1/refs", AddRefRequest{
		ID: "plasmid", Sequence: ref.String(),
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate ingest status %d, want 409", resp.StatusCode)
	}

	// Tombstone it.
	resp = doRequest(t, http.MethodDelete, ts.URL+"/v1/refs/plasmid", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	var rr RemoveRefResponse
	decodeInto(t, resp, &rr)
	if rr.TombstoneRatio <= 0 {
		t.Fatalf("delete left no tombstones: %+v", rr)
	}
	if ids := searchIDs(t, ts.URL, pat); ids["plasmid"] {
		t.Fatal("removed reference still searchable")
	}

	// Deleting it again is a 404: the ID no longer names a live ref.
	if resp := doRequest(t, http.MethodDelete, ts.URL+"/v1/refs/plasmid", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", resp.StatusCode)
	}

	// Compaction rewrites the tombstoned segment and clears the ratio.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/compact", "{}")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", resp.StatusCode)
	}
	var cr CompactResponse
	decodeInto(t, resp, &cr)
	if cr.Rewritten == 0 || cr.TombstoneRatio != 0 {
		t.Fatalf("compact response implausible: %+v", cr)
	}

	// The original reference still serves.
	statsResp := doRequest(t, http.MethodGet, ts.URL+"/v1/stats", "")
	var st wire.StatsResult
	decodeInto(t, statsResp, &st)
	if st.References != 2 || st.Segments == 0 || st.Tombstones != 0 {
		t.Fatalf("stats after lifecycle implausible: %+v", st)
	}
}

func TestAddRefValidation(t *testing.T) {
	ts, _ := testServer(t)
	for name, req := range map[string]AddRefRequest{
		"missing id":       {Sequence: "ACGTACGT"},
		"missing sequence": {ID: "x"},
		"bad base":         {ID: "x", Sequence: "ACGTZZ"},
		"too short":        {ID: "x", Sequence: "ACGT"}, // shorter than the window
	} {
		resp := postJSON(t, ts.URL+"/v1/refs", req)
		if resp.StatusCode/100 != 4 {
			t.Errorf("%s: status %d, want 4xx", name, resp.StatusCode)
		}
	}
}

func TestCompactValidation(t *testing.T) {
	ts, _ := testServer(t)
	// Nothing to compact: still a 200, zero rewrites.
	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-body compact status %d", resp.StatusCode)
	}
	var cr CompactResponse
	decodeInto(t, resp, &cr)
	if cr.Rewritten != 0 {
		t.Fatalf("tombstone-free compact rewrote %d segments", cr.Rewritten)
	}
	if resp := doRequest(t, http.MethodPost, ts.URL+"/v1/compact", `{"minRatio": 2}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range minRatio status %d, want 400", resp.StatusCode)
	}
	if resp := doRequest(t, http.MethodPost, ts.URL+"/v1/compact", `{} {}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two-value body status %d, want 400", resp.StatusCode)
	}
}

// TestCompactEmptyChunkedBody: an empty body means "compact anything
// with tombstones" whatever its framing, here a chunked body of no
// chunks (ContentLength −1 on both sides).
func TestCompactEmptyChunkedBody(t *testing.T) {
	ts, _ := testServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compact", io.NopCloser(strings.NewReader("")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("empty chunked compact: status %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsExportSegmentSeries asserts the library lifecycle gauges
// and counters appear on /metrics.
func TestMetricsExportSegmentSeries(t *testing.T) {
	ts, _ := testServer(t)
	resp := doRequest(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, series := range []string{
		"biohd_library_segments 1",
		"biohd_library_tombstone_ratio 0",
		"biohd_library_memory_bytes",
		"biohd_core_segment_seals_total",
		"biohd_core_compactions_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
}

// TestSearchDuringIngest overlaps search traffic with mutation traffic
// at the HTTP layer — the service must answer both without errors.
func TestSearchDuringIngest(t *testing.T) {
	ts, ref := testServer(t)
	pat := ref.Slice(500, 532).String()
	done := make(chan struct{})
	go func() {
		defer close(done)
		src := rng.New(86)
		for i := 0; i < 5; i++ {
			id := fmt.Sprintf("live-%d", i)
			resp := postJSON(t, ts.URL+"/v1/refs", AddRefRequest{
				ID: id, Sequence: genome.Random(200, src).String(),
			})
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("ingest %s status %d", id, resp.StatusCode)
				return
			}
			if resp := doRequest(t, http.MethodDelete, ts.URL+"/v1/refs/"+id, ""); resp.StatusCode != http.StatusOK {
				t.Errorf("delete %s status %d", id, resp.StatusCode)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if ids := searchIDs(t, ts.URL, pat); !ids["chr1"] {
			t.Fatalf("iteration %d: baseline reference unfindable during ingest", i)
		}
	}
	<-done
}

// gatedAdd signals each Add on entry and holds it there until release
// is closed.
type gatedAdd struct {
	core.Index
	entered chan struct{}
	release chan struct{}
}

func (g gatedAdd) Add(rec genome.Record) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Index.Add(rec)
}

// TestConcurrentAddSameID posts one reference ID a second time while
// the first ingest is still inside Add: the second may not reach Add,
// and once the first lands it is a conflict. Checking the ID and
// adding without one lock across both let the two in, leaving two live
// references with one ID, of which a DELETE removed only the first.
func TestConcurrentAddSameID(t *testing.T) {
	lib, err := core.NewLibrary(core.Params{Dim: 1024, Window: 32, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: genome.Random(500, rng.New(88))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	g := gatedAdd{Index: lib, entered: make(chan struct{}, 2), release: make(chan struct{})}
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	body := `{"id":"dup","sequence":"` + genome.Random(200, rng.New(89)).String() + `"}`
	codes := make(chan int, 2)
	post := func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/refs", strings.NewReader(body)))
		codes <- w.Code
	}
	go post()
	<-g.entered
	go post()
	select {
	case <-g.entered:
		close(g.release)
		t.Fatalf("a second Add of %q started while the first was running (statuses %d, %d)", "dup", <-codes, <-codes)
	case <-time.After(200 * time.Millisecond):
		// Ample for the second POST to reach Add if it could. On a
		// correct server its outcome does not depend on this wait: it
		// is a 409 however late it runs.
	}
	close(g.release)
	a, b := <-codes, <-codes
	if min(a, b) != http.StatusCreated || max(a, b) != http.StatusConflict {
		t.Fatalf("statuses %d and %d, want one 201 and one 409", a, b)
	}
}

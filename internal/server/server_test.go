package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// testServer serves newServer's server over HTTP and returns it with
// the reference for planting queries.
func testServer(t *testing.T) (*httptest.Server, *genome.Sequence) {
	t.Helper()
	s, ref := newServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, ref
}

// newServer builds a server over one random reference and returns it
// with the reference.
func newServer(t *testing.T) (*Server, *genome.Sequence) {
	t.Helper()
	ref := genome.Random(3000, rng.New(81))
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 82})
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
	return s, ref
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestNewRequiresFrozen(t *testing.T) {
	lib, err := core.NewLibrary(core.Params{Dim: 1024, Window: 16, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(lib); err == nil {
		t.Fatal("unfrozen library accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil library accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats wire.StatsResult
	decodeInto(t, resp, &stats)
	if stats.References != 1 || stats.Dim != 8192 || stats.Buckets == 0 {
		t.Fatalf("stats implausible: %+v", stats)
	}
}

func TestSearchForward(t *testing.T) {
	ts, ref := testServer(t)
	pat := ref.Slice(500, 532)
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pat.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr wire.SearchResult
	decodeInto(t, resp, &sr)
	found := false
	for _, m := range sr.Matches {
		if m.Ref == "chr1" && m.Offset == 500 && m.Strand == "+" {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted pattern not found: %+v", sr)
	}
	if sr.Probes == 0 {
		t.Fatal("no probes reported")
	}
}

func TestSearchBothStrands(t *testing.T) {
	ts, ref := testServer(t)
	rc := ref.Slice(700, 732).ReverseComplement()
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: rc.String(), Strands: "both"})
	var sr wire.SearchResult
	decodeInto(t, resp, &sr)
	found := false
	for _, m := range sr.Matches {
		if m.Offset == 700 && m.Strand == "-" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reverse-strand match missing: %+v", sr)
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := testServer(t)
	for name, req := range map[string]SearchRequest{
		"empty pattern": {},
		"bad base":      {Pattern: "ACGN"},
		"bad strands":   {Pattern: "ACGTACGTACGTACGTACGTACGTACGTACGT", Strands: "sideways"},
	} {
		resp := postJSON(t, ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
	}
	// Too-short pattern is a library-level rejection.
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: "ACGT"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short pattern: status %d", resp.StatusCode)
	}
}

func TestSearchRejectsUnknownFields(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"pattern":"ACGT","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
}

// TestSearchRejectsTrailingData: a body is one JSON value. Whitespace
// may follow it; anything else — garbage or a second value — is a 400,
// as the wire decoder refuses a frame with trailing bytes.
func TestSearchRejectsTrailingData(t *testing.T) {
	ts, ref := testServer(t)
	body := `{"pattern":"` + ref.Slice(500, 532).String() + `"}`
	for suffix, want := range map[string]int{
		" trailing garbage": http.StatusBadRequest,
		body:                http.StatusBadRequest,
		"\n \t\r\n":         http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body+suffix))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body followed by %q: status %d, want %d", suffix, resp.StatusCode, want)
		}
	}
}

func TestClassify(t *testing.T) {
	ts, ref := testServer(t)
	read := ref.Slice(1000, 1320)
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Read: read.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr wire.ClassifyResult
	decodeInto(t, resp, &cr)
	if cr.Ref != "chr1" || cr.Offset != 1000 {
		t.Fatalf("classification wrong: %+v", cr)
	}
	if cr.Fraction < 0.9 {
		t.Fatalf("support %v", cr.Fraction)
	}
}

func TestClassifyShortReadIsUnprocessable(t *testing.T) {
	ts, _ := testServer(t)
	// A valid DNA string shorter than the 32-base window is an
	// invalid-input error (422), not a not-found (404).
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Read: "ACGTACGT"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short read: status %d, want 422", resp.StatusCode)
	}
}

func TestClassifyRejectsImpossibleMinFraction(t *testing.T) {
	ts, ref := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{
		Read:        ref.Slice(1000, 1320).String(),
		MinFraction: 1.5,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("minFraction 1.5: status %d, want 400", resp.StatusCode)
	}
	// The boundary value 1.0 (perfect support) stays classifiable.
	resp = postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{
		Read:        ref.Slice(1000, 1320).String(),
		MinFraction: 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("minFraction 1.0: status %d, want 200", resp.StatusCode)
	}
}

func TestBatchSkipsUnparsablePatterns(t *testing.T) {
	ts, ref := testServer(t)
	good1 := ref.Slice(10, 42).String()
	good2 := ref.Slice(200, 232).String()
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Patterns: []string{good1, "NOT-DNA-AT-ALL", good2},
	})
	var br wire.BatchResult
	decodeInto(t, resp, &br)
	if len(br.Results) != 3 {
		t.Fatalf("%d results", len(br.Results))
	}
	if br.Results[1].Error == "" || len(br.Results[1].Matches) != 0 {
		t.Fatalf("unparsable pattern result: %+v", br.Results[1])
	}
	if br.Results[0].Error != "" || len(br.Results[0].Matches) == 0 {
		t.Fatalf("index mapping broken for slot 0: %+v", br.Results[0])
	}
	if br.Results[2].Error != "" || len(br.Results[2].Matches) == 0 {
		t.Fatalf("index mapping broken for slot 2: %+v", br.Results[2])
	}
	// Unparsable patterns must not enter the lookup pipeline: aggregate
	// probes equal exactly the two real lookups' probes.
	var s1, s2 wire.SearchResult
	decodeInto(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: good1}), &s1)
	decodeInto(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: good2}), &s2)
	if br.Probes != s1.Probes+s2.Probes {
		t.Fatalf("batch probes %d != %d+%d (placeholder lookup polluted the aggregate?)",
			br.Probes, s1.Probes, s2.Probes)
	}
}

func TestClassifyNotFound(t *testing.T) {
	ts, _ := testServer(t)
	unrelated := genome.Random(320, rng.New(84))
	resp := postJSON(t, ts.URL+"/v1/classify", ClassifyRequest{Read: unrelated.String()})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestBatch(t *testing.T) {
	ts, ref := testServer(t)
	req := BatchRequest{Patterns: []string{
		ref.Slice(10, 42).String(),
		genome.Random(32, rng.New(85)).String(),
		"ACGT", // too short → per-item error
	}}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br wire.BatchResult
	decodeInto(t, resp, &br)
	if len(br.Results) != 3 {
		t.Fatalf("%d results", len(br.Results))
	}
	if len(br.Results[0].Matches) == 0 || br.Results[0].Error != "" {
		t.Fatalf("planted pattern result: %+v", br.Results[0])
	}
	if br.Results[2].Error == "" {
		t.Fatal("short pattern did not report an error")
	}
	if br.Probes == 0 {
		t.Fatal("no aggregate probes")
	}
}

func TestBatchValidation(t *testing.T) {
	ts, _ := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	big := BatchRequest{Patterns: make([]string, maxBatchPatterns+1)}
	resp = postJSON(t, ts.URL+"/v1/batch", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: status %d", resp.StatusCode)
	}
}

func TestBatchErrorCellsHaveBadBaseMessage(t *testing.T) {
	ts, _ := testServer(t)
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Patterns: []string{"NNNN" + strings.Repeat("A", 28)}})
	var br wire.BatchResult
	decodeInto(t, resp, &br)
	if br.Results[0].Error == "" {
		t.Fatal("invalid base not reported")
	}
	if !strings.Contains(br.Results[0].Error, "invalid nucleotide") {
		t.Fatalf("unexpected error text %q", br.Results[0].Error)
	}
}

// ExampleServer serves a frozen library and searches it over HTTP for
// a pattern planted at offset 40.
func ExampleServer() {
	ref := genome.Random(100, rng.New(1))
	lib, _ := core.NewLibrary(core.Params{Dim: 1024, Window: 16, Seed: 1})
	_ = lib.Add(genome.Record{ID: "demo", Seq: ref})
	lib.Freeze()
	s, _ := New(lib)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"pattern":%q}`, ref.Slice(40, 56).String())
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var res wire.SearchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		panic(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("%s:%d distance=%d strand=%s\n", m.Ref, m.Offset, m.Distance, m.Strand)
	}
	// Output: demo:40 distance=0 strand=+
}

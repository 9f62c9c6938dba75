package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// coalescePair builds two servers over the same frozen library: one
// with coalescing enabled (defaults), one with it disabled, so tests
// can compare response bytes across the two paths.
func coalescePair(t *testing.T) (on, off *httptest.Server, ref *genome.Sequence) {
	t.Helper()
	ref = genome.Random(3000, rng.New(91))
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	mk := func(cfg Config) *httptest.Server {
		s, err := New(lib, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	on = mk(Config{})
	off = mk(Config{Coalesce: coalesce.Config{BatchSize: 1}})
	return on, off, ref
}

// TestCoalescedResponsesByteIdentical: for every search-side endpoint,
// the coalesced server's response — status and body bytes — matches
// the direct path's, including error and not-found outcomes.
func TestCoalescedResponsesByteIdentical(t *testing.T) {
	on, off, ref := coalescePair(t)
	window := ref.Slice(100, 132).String()
	read := ref.Slice(400, 496).String() // 3 windows: coalesced classify path
	long := ref.Slice(0, 2999).String()  // > BlockWidth windows: LookupLong path
	miss := strings.Repeat("ACGT", 8)

	cases := []struct {
		name, path, body string
	}{
		{"search-hit", "/v1/search", `{"pattern":"` + window + `"}`},
		{"search-miss", "/v1/search", `{"pattern":"` + miss + `"}`},
		{"search-both", "/v1/search", `{"pattern":"` + window + `","strands":"both"}`},
		{"search-short", "/v1/search", `{"pattern":"ACGT"}`},
		{"classify-short-read", "/v1/classify", `{"read":"` + read + `"}`},
		{"classify-long-read", "/v1/classify", `{"read":"` + long + `"}`},
		{"classify-no-support", "/v1/classify", `{"read":"` + miss + `"}`},
		{"batch-remainder", "/v1/batch",
			`{"patterns":["` + window + `","` + miss + `","not-dna","` + window + `"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			get := func(ts *httptest.Server) (int, string) {
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(b)
			}
			onStatus, onBody := get(on)
			offStatus, offBody := get(off)
			if onStatus != offStatus || onBody != offBody {
				t.Errorf("coalesced response differs:\n on: %d %s\noff: %d %s",
					onStatus, onBody, offStatus, offBody)
			}
		})
	}
}

// TestCoalescedConcurrentSearchesByteIdentical packs genuinely
// concurrent requests into shared blocks and checks every response
// still matches its sequential equivalent byte for byte.
func TestCoalescedConcurrentSearchesByteIdentical(t *testing.T) {
	on, off, ref := coalescePair(t)
	src := rng.New(93)
	bodies := make([]string, 32)
	want := make([]string, len(bodies))
	for i := range bodies {
		var pat string
		if i%2 == 0 {
			o := src.Intn(ref.Len() - 32)
			pat = ref.Slice(o, o+32).String()
		} else {
			pat = genome.Random(32, src).String()
		}
		bodies[i] = `{"pattern":"` + pat + `"}`
		resp, err := http.Post(off.URL+"/v1/search", "application/json", strings.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want[i] = string(b)
	}
	var wg sync.WaitGroup
	got := make([]string, len(bodies))
	errs := make([]error, len(bodies))
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(on.URL+"/v1/search", "application/json", strings.NewReader(bodies[i]))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			errs[i] = err
			got[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("request %d: concurrent coalesced body %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDisabledCoalescingAllocParity guards the fast path: with
// coalescing disabled, the handler-side lookup helper must add zero
// allocations over a bare Library.Lookup — the admission layer
// vanishes completely.
func TestDisabledCoalescingAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	ref := genome.Random(3000, rng.New(94))
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	s, err := New(lib, WithConfig(Config{Coalesce: coalesce.Config{BatchSize: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.coal != nil {
		t.Fatal("BatchSize 1 must disable the coalescer")
	}
	pat := genome.Random(32, rng.New(96)) // miss: the alloc-free steady state
	ctx := context.Background()
	if _, _, err := s.lookup(ctx, pat); err != nil {
		t.Fatal(err)
	}
	direct := testing.AllocsPerRun(50, func() { lib.Lookup(pat) })
	routed := testing.AllocsPerRun(50, func() { s.lookup(ctx, pat) })
	if routed > direct {
		t.Errorf("disabled-path lookup allocates %.1f/op, direct %.1f/op; want parity", routed, direct)
	}
}

// TestCoalesceMetricsExposure: the coalescing series appear on
// /metrics when enabled and not when disabled.
func TestCoalesceMetricsExposure(t *testing.T) {
	on, off, ref := coalescePair(t)
	for _, ts := range []*httptest.Server{on, off} {
		resp := postJSON(t, ts.URL+"/v1/search", map[string]string{"pattern": ref.Slice(0, 32).String()})
		resp.Body.Close()
	}
	series := []string{
		"biohd_coalesce_block_occupancy",
		"biohd_coalesce_queue_depth",
		"biohd_coalesce_wait_seconds",
		"biohd_coalesce_jobs_total",
	}
	fetch := func(ts *httptest.Server) string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	onText, offText := fetch(on), fetch(off)
	for _, name := range series {
		if !strings.Contains(onText, name) {
			t.Errorf("enabled server missing %s", name)
		}
		if strings.Contains(offText, name) {
			t.Errorf("disabled server unexpectedly exposes %s", name)
		}
	}
}

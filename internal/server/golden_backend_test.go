package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// The golden equivalence suite pins the backend-interface refactor:
// the HDC library must answer byte-identically whether the caller
// holds the concrete *core.Library or the core.Index interface the
// server and CLI now program against — sequentially and
// under 32-way concurrency — and the /v1 responses served over the
// interface must reproduce the same bytes request after request.

const goldenWorkers = 32

// goldenLibrary builds an HDC library with sealed segments and one
// tombstoned reference — the states whose probe paths the refactor
// touched.
func goldenLibrary(t *testing.T) (*core.Library, []*genome.Sequence) {
	t.Helper()
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 7001})
	if err != nil {
		t.Fatal(err)
	}
	var refs []*genome.Sequence
	for i := 0; i < 3; i++ {
		seq := genome.Random(2000, rng.New(uint64(7100+i)))
		refs = append(refs, seq)
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	if err := lib.Remove(2); err != nil {
		t.Fatal(err)
	}
	return lib, refs
}

func goldenQueries(refs []*genome.Sequence) []*genome.Sequence {
	var qs []*genome.Sequence
	for _, seq := range refs {
		qs = append(qs, seq.Slice(0, 32), seq.Slice(700, 732), seq.Slice(seq.Len()-32, seq.Len()))
		qs = append(qs, seq.Slice(100, 132).ReverseComplement())
	}
	for i := 0; i < 10; i++ {
		qs = append(qs, genome.Random(32, rng.New(uint64(7500+i))))
	}
	return qs
}

// encodeAnswer canonicalizes one lookup outcome (matches, stats, and
// error text) into comparable bytes.
func encodeAnswer(t *testing.T, matches interface{}, stats core.Stats, err error) []byte {
	t.Helper()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	b, jerr := json.Marshal(struct {
		Matches interface{}
		Stats   core.Stats
		Err     string
	}{matches, stats, msg})
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b
}

func bothQuery(q *genome.Sequence) core.Query {
	return core.Query{Patterns: []*genome.Sequence{q}, Both: true}
}

func longQuery(q *genome.Sequence) core.Query {
	return core.Query{Patterns: []*genome.Sequence{q}, Long: true, MinFrac: 0.5}
}

// searchAnswer runs q through search — a concrete or an interface
// method value — and canonicalizes the whole Answer: every entry's
// matches, stats and error text, the ranking and its strand, the
// aggregate stats and Search's error.
func searchAnswer(t *testing.T, search func(context.Context, core.Query, *core.Answer) error, q core.Query) []byte {
	t.Helper()
	var a core.Answer
	err := search(context.Background(), q, &a)
	entries := make([]interface{}, len(a.Results))
	for i, r := range a.Results {
		entries[i] = []interface{}{r.Matches, r.Stats, fmt.Sprint(r.Err)}
	}
	return encodeAnswer(t, []interface{}{entries, a.Ranked, a.Strand}, a.Stats, err)
}

func TestGoldenHDCThroughInterface(t *testing.T) {
	lib, refs := goldenLibrary(t)
	queries := goldenQueries(refs)

	// Golden: the concrete library, called directly.
	golden := make([][]byte, len(queries))
	goldenBoth := make([][]byte, len(queries))
	goldenLong := make([][]byte, len(queries))
	for i, q := range queries {
		m, st, err := lib.Lookup(q)
		golden[i] = encodeAnswer(t, m, st, err)
		goldenBoth[i] = searchAnswer(t, lib.Search, bothQuery(q))
		goldenLong[i] = searchAnswer(t, lib.Search, longQuery(q))
	}

	var idx core.Index = lib
	checkAll := func(t *testing.T) {
		for i, q := range queries {
			m, st, err := idx.Lookup(q)
			if got := encodeAnswer(t, m, st, err); string(got) != string(golden[i]) {
				t.Errorf("query %d: interface Lookup diverged\n got %s\nwant %s", i, got, golden[i])
				return
			}
			if got := searchAnswer(t, idx.Search, bothQuery(q)); string(got) != string(goldenBoth[i]) {
				t.Errorf("query %d: interface both-strand Search diverged", i)
				return
			}
			if got := searchAnswer(t, idx.Search, longQuery(q)); string(got) != string(goldenLong[i]) {
				t.Errorf("query %d: interface Long Search diverged", i)
				return
			}
		}
	}

	t.Run("sequential", checkAll)
	t.Run("concurrent32", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < goldenWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkAll(t)
			}()
		}
		wg.Wait()
	})
}

func TestGoldenV1ResponsesThroughInterface(t *testing.T) {
	lib, refs := goldenLibrary(t)
	s, err := New(lib)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	queries := goldenQueries(refs)
	search := func(t *testing.T, pattern string) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Pattern: pattern, Strands: "both"})
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body
	}

	golden := make([][]byte, len(queries))
	for i, q := range queries {
		golden[i] = search(t, q.String())
	}
	// The interface-typed server must keep serving the same bytes —
	// from 32 concurrent clients.
	var wg sync.WaitGroup
	for w := 0; w < goldenWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if got := search(t, q.String()); string(got) != string(golden[i]) {
					t.Errorf("query %d: /v1/search bytes diverged under concurrency\n got %s\nwant %s", i, got, golden[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	// The stats surface names the backend.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats wire.StatsResult
	decodeInto(t, resp, &stats)
	if stats.Backend != core.BackendHDC {
		t.Fatalf("stats backend %q, want %q", stats.Backend, core.BackendHDC)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// answerCase is one search-side request and the response the service
// must send for it: the status and body rendered from the index's own
// in-process answer.
type answerCase struct {
	name, path, body string
	status           int
	want             string
}

// rendered is the body the handlers write for v: one JSON value and a
// newline.
func rendered(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// matchesJSON renders matches found on one strand.
func matchesJSON(lib core.Index, ms []core.Match, strand core.Strand) []wire.Match {
	out := []wire.Match{}
	for _, m := range ms {
		out = append(out, wire.Match{Ref: lib.Ref(m.Ref).ID, Offset: m.Off, Distance: m.Distance, Strand: strand.String()})
	}
	return out
}

// answerServer serves a frozen library with the default configuration
// and returns every search-side case — forward, both strands, miss,
// short pattern, short read, long read, no-support read, and a batch
// with a malformed item and nine patterns — each with the answer the
// library gives in process, rendered.
func answerServer(t *testing.T) (*httptest.Server, []answerCase) {
	t.Helper()
	ref := genome.Random(3000, rng.New(91))
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 92})
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

	window := ref.Slice(100, 132)
	miss := genome.Random(32, rng.New(93))
	read := ref.Slice(400, 496) // 3 windows
	long := ref.Slice(0, 2999)  // more windows than a probe block

	search := func(name string, pat *genome.Sequence, strands string) answerCase {
		body := fmt.Sprintf(`{"pattern":%q,"strands":%q}`, pat, strands)
		var resp wire.SearchResult
		var err error
		if strands == "both" {
			var a core.Answer
			err = lib.Search(context.Background(), core.Query{Patterns: []*genome.Sequence{pat}, Both: true}, &a)
			if err == nil {
				err = a.Results[0].Err
			}
			resp = wire.SearchResult{Matches: []wire.Match{}, Probes: a.Stats.BucketProbes}
			for strand, r := range a.Results {
				resp.Matches = append(resp.Matches, matchesJSON(lib, r.Matches, core.Strand(strand))...)
			}
		} else {
			var ms []core.Match
			var st core.Stats
			ms, st, err = lib.Lookup(pat)
			resp = wire.SearchResult{Matches: matchesJSON(lib, ms, core.Forward), Probes: st.BucketProbes}
		}
		if err != nil {
			return answerCase{name, "/v1/search", body, http.StatusUnprocessableEntity, rendered(t, errorBody{err.Error()})}
		}
		return answerCase{name, "/v1/search", body, http.StatusOK, rendered(t, resp)}
	}
	classify := func(name string, rd *genome.Sequence) answerCase {
		body := fmt.Sprintf(`{"read":%q}`, rd)
		best, _, err := lib.Classify(rd, 0.5)
		if errors.Is(err, core.ErrNoSupport) {
			return answerCase{name, "/v1/classify", body, http.StatusNotFound, rendered(t, errorBody{err.Error()})}
		} else if err != nil {
			t.Fatal(err)
		}
		return answerCase{name, "/v1/classify", body, http.StatusOK, rendered(t, wire.ClassifyResult{
			Ref: lib.Ref(best.Ref).ID, Offset: best.Offset, Votes: best.Votes, Windows: best.Windows, Fraction: best.Fraction,
		})}
	}
	batch := func(name string) answerCase {
		// Nine patterns — a full block and a tail of one — every third a
		// miss, with a malformed item among them.
		var seqs []*genome.Sequence
		for i := 0; i < 9; i++ {
			p := ref.Slice(200*i, 200*i+32)
			if i%3 == 1 {
				p = genome.Random(32, rng.New(uint64(94+i)))
			}
			seqs = append(seqs, p)
		}
		var a core.Answer
		if err := lib.Search(context.Background(), core.Query{Patterns: seqs}, &a); err != nil {
			t.Fatal(err)
		}
		const bad = 4
		_, perr := genome.FromString("NOT-DNA")
		var texts []string
		resp := wire.BatchResult{Probes: a.Stats.BucketProbes}
		for i, r := range a.Results {
			if i == bad {
				texts = append(texts, "not-dna")
				resp.Results = append(resp.Results, wire.BatchItem{Matches: []wire.Match{}, Error: perr.Error()})
			}
			texts = append(texts, seqs[i].String())
			resp.Results = append(resp.Results, wire.BatchItem{Matches: matchesJSON(lib, r.Matches, core.Forward)})
		}
		body, err := json.Marshal(BatchRequest{Patterns: texts})
		if err != nil {
			t.Fatal(err)
		}
		return answerCase{name, "/v1/batch", string(body), http.StatusOK, rendered(t, resp)}
	}
	cases := []answerCase{
		search("search-hit", window, "forward"),
		search("search-miss", miss, "forward"),
		search("search-both", window, "both"),
		search("search-short", window.Slice(0, 4), "forward"),
		classify("classify-short-read", read),
		classify("classify-long-read", long),
		classify("classify-no-support", miss),
		batch("batch-remainder"),
	}
	// The hits must hit, or comparing against them proves little.
	for _, i := range []int{0, 2, 4, 5, 7} {
		if !strings.Contains(cases[i].want, `"ref":"chr1"`) {
			t.Fatalf("%s: the index finds nothing: %s", cases[i].name, cases[i].want)
		}
	}
	return ts, cases
}

// post sends one case and returns the status and body it got.
func post(ts *httptest.Server, c answerCase) (int, string, error) {
	resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// TestResponsesByteIdentical: for every search-side case the service
// answers, one request at a time, with the bytes rendered from the
// index's own in-process answer.
func TestResponsesByteIdentical(t *testing.T) {
	ts, cases := answerServer(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body, err := post(ts, c)
			if err != nil {
				t.Fatal(err)
			}
			if status != c.status || body != c.want {
				t.Errorf("response differs from the index's answer:\n got: %d %s\nwant: %d %s", status, body, c.status, c.want)
			}
		})
	}
}

// TestConcurrentSearchesByteIdentical sends the same cases from 32
// concurrent clients, so every shape of request runs beside every
// other, and checks every response against the in-process answer byte
// for byte.
func TestConcurrentSearchesByteIdentical(t *testing.T) {
	ts, cases := answerServer(t)
	const clients = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(c answerCase) {
			defer wg.Done()
			status, body, err := post(ts, c)
			if err != nil {
				t.Error(err)
				return
			}
			if status != c.status || body != c.want {
				t.Errorf("%s: concurrent response %d %s, want %d %s", c.name, status, body, c.status, c.want)
			}
		}(cases[i%len(cases)])
	}
	wg.Wait()
}

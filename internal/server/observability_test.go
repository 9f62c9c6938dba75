package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// trafficStep is one request of a fixed mix, the series it must land in
// and the status it must be answered with.
type trafficStep struct {
	method, target, body string
	status               int
	path, class          string // the request's series labels
}

func (st trafficStep) send(t testing.TB, h http.Handler) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(st.method, st.target, strings.NewReader(st.body)))
	if rec.Code != st.status {
		t.Errorf("%s %s: status %d, want %d", st.method, st.target, rec.Code, st.status)
	}
}

// requestMix is the concurrent mix: a search answered 200, a malformed
// body answered 400, a classify answered 404, an unknown path counted as
// "other" and a DELETE of an absent reference, counted under /v1/refs.
func requestMix(ref *genome.Sequence) []trafficStep {
	unrelated := genome.Random(320, rng.New(84))
	return []trafficStep{
		{"POST", "/v1/search", `{"pattern":"` + ref.Slice(100, 132).String() + `"}`, 200, "/v1/search", "2xx"},
		{"POST", "/v1/search", `{"pattern":`, 400, "/v1/search", "4xx"},
		{"POST", "/v1/classify", `{"read":"` + unrelated.String() + `"}`, 404, "/v1/classify", "4xx"},
		{"GET", "/v1/nowhere", "", 404, "other", "4xx"},
		{"DELETE", "/v1/refs/x", "", 404, "/v1/refs", "4xx"},
	}
}

func scrape(t testing.TB, h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// seriesValues maps each "name{labels}" line of a scrape to its value.
func seriesValues(text string) map[string]int64 {
	vals := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			vals[line[:i]] = v
		}
	}
	return vals
}

// TestHTTPSeriesExactUnderConcurrency sends a fixed mix from several
// goroutines while another scrapes /metrics, then holds every request
// counter and every latency _count to what was sent — a slot filled
// twice by racing first requests, or an observation lost to one, shows
// as a wrong count.
func TestHTTPSeriesExactUnderConcurrency(t *testing.T) {
	s, ref := newServer(t)
	h := s.Handler()
	mix := requestMix(ref)
	const senders, rounds = 4, 25

	var scrapes int64
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrape(t, h)
			scrapes++
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, st := range mix {
					st.send(t, h)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped

	got := seriesValues(scrape(t, h))
	want := map[string]int64{}
	perPath := map[string]int64{}
	for _, st := range mix {
		want[`biohd_http_requests_total{path="`+st.path+`",status="`+st.class+`"}`] += senders * rounds
		perPath[st.path] += senders * rounds
	}
	if scrapes > 0 {
		want[`biohd_http_requests_total{path="/metrics",status="2xx"}`] = scrapes
		perPath["/metrics"] = scrapes
	}
	for p, n := range perPath {
		want[`biohd_http_request_seconds_count{path="`+p+`"}`] = n
		want[`biohd_http_request_seconds_bucket{path="`+p+`",le="+Inf"}`] = n
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s = %d, want %d", k, got[k], n)
		}
	}
	for k := range got {
		if (strings.HasPrefix(k, "biohd_http_requests_total{") ||
			strings.HasPrefix(k, "biohd_http_request_seconds_count{")) && want[k] == 0 {
			t.Errorf("unexpected series %s = %d", k, got[k])
		}
	}
}

// TestHTTPSeriesGolden holds the biohd_http_* block of /metrics, after a
// fixed sequential traffic, to testdata/http_metrics.golden, rendered by
// the per-request registry lookups this table replaced: the same series
// in the same order, and no zero-valued series for a slot no request
// used. Bucket counts below +Inf and the sums depend on timing and are
// masked.
func TestHTTPSeriesGolden(t *testing.T) {
	s, ref := newServer(t)
	h := s.Handler()
	steps := append(requestMix(ref),
		trafficStep{"GET", "/healthz", "", 200, "/healthz", "2xx"},
		trafficStep{"GET", "/v1/stats", "", 200, "/v1/stats", "2xx"},
		trafficStep{"GET", "/v1/search", "", 405, "/v1/search", "4xx"},
		trafficStep{"GET", "/v1/./stats", "", 301, "other", "3xx"},
		trafficStep{"POST", "/v1/batch", `{"patterns":["` + ref.Slice(10, 42).String() + `"]}`, 200, "/v1/batch", "2xx"},
		trafficStep{"POST", "/v1/refs", `{"id":"p","sequence":"` + strings.Repeat("ACGT", 16) + `"}`, 201, "/v1/refs", "2xx"},
		trafficStep{"DELETE", "/v1/refs/p", "", 200, "/v1/refs", "2xx"},
		trafficStep{"POST", "/v1/compact", `{}`, 200, "/v1/compact", "2xx"},
		trafficStep{"POST", "/v1/search", `{"pattern":"` + ref.Slice(200, 232).String() + `"}`, 200, "/v1/search", "2xx"},
	)
	for _, st := range steps {
		st.send(t, h)
	}
	scrape(t, h) // the golden block counts one earlier scrape
	var got strings.Builder
	for _, line := range strings.Split(scrape(t, h), "\n") {
		if !strings.Contains(line, "biohd_http_") {
			continue
		}
		if (strings.Contains(line, "_bucket{") && !strings.Contains(line, `le="+Inf"`)) ||
			strings.Contains(line, "_sum{") {
			line = line[:strings.LastIndexByte(line, ' ')] + " #"
		}
		got.WriteString(line + "\n")
	}
	golden := filepath.Join("testdata", "http_metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("biohd_http_* series differ from %s:\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// okWriter is a ResponseWriter that allocates nothing per request.
type okWriter struct{ h http.Header }

func (w okWriter) Header() http.Header       { return w.h }
func (okWriter) Write(b []byte) (int, error) { return len(b), nil }
func (okWriter) WriteHeader(int)             {}

// TestObservabilityAllocs pins the middleware's per-request cost once
// a route's series exist: the statusWriter is its one allocation, and
// the count, the latency and the in-flight gauge add none (the series
// table is read with atomic loads, not looked up in the registry).
func TestObservabilityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s, _ := newServer(t)
	h := s.withObservability(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	w := okWriter{h: http.Header{}}
	r := httptest.NewRequest("POST", "/v1/search", nil)
	if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) }); n > 1 {
		t.Fatalf("withObservability allocates %.1f times per request, want ≤ 1 (the statusWriter)", n)
	}
	if got := s.series.requests[routeOf("/v1/search")][statusClass(200)].Load().Value(); got != 201 {
		t.Fatalf("request counter %d after 201 requests", got)
	}
}

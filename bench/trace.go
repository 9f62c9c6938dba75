package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/wire"
)

// Span names: one per seam the harness wires together. A request's
// spans nest client → (wire.backend | http.handler) → core.index; on
// the in-process workloads the client span is the parent of core.index
// directly. Below core.index there is nothing to wrap, so the encoder,
// the scan and the codecs are replayed (layers.go).
const (
	spanClient  = "client"
	spanBackend = "wire.backend"
	spanHandler = "http.handler"
	spanIndex   = "core.index"
	spanAdd     = "core.add"
	spanRemove  = "core.remove"
)

// traceHeader carries a traced request's identifier over HTTP, where
// the handler wrapper cannot read it out of the body without consuming
// it. On the wire and in process the pattern text itself is the
// identifier.
const traceHeader = "X-Bench-Request"

// span is one timed interval of one request at one seam.
type span struct {
	Request string `json:"request"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder collects spans and the work counts observed at the same
// seams. It stays in memory until the workload ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	work  core.Stats // summed over every traced index call
	calls int        // index probe calls (one per pattern)
	found int        // matches those calls returned
	added int        // windows ingested through Add
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(request, name, parent string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Request: request, Name: name, Parent: parent, StartNs: start, EndNs: end})
	r.mu.Unlock()
}

// probed records one index probe call's span and its counted work.
func (r *recorder) probed(request, parent string, start, end int64, st core.Stats, matches int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Request: request, Name: spanIndex, Parent: parent, StartNs: start, EndNs: end})
	r.work.Add(st)
	r.calls++
	r.found += matches
	r.mu.Unlock()
}

// tracedIndex decorates a core.Index with a span per probe and
// mutation call. Answers pass through untouched; every other method is
// the embedded index's own.
type tracedIndex struct {
	core.Index
	rec    *recorder
	parent string
}

func (t *tracedIndex) Lookup(pattern *genome.Sequence) ([]core.Match, core.Stats, error) {
	start := t.rec.now()
	matches, st, err := t.Index.Lookup(pattern)
	t.rec.probed(pattern.String(), t.parent, start, t.rec.now(), st, len(matches))
	return matches, st, err
}

func (t *tracedIndex) LookupBlock(patterns []*genome.Sequence, results []core.BatchResult) error {
	start := t.rec.now()
	err := t.Index.LookupBlock(patterns, results)
	end := t.rec.now()
	for i, p := range patterns {
		t.rec.probed(p.String(), t.parent, start, end, results[i].Stats, len(results[i].Matches))
	}
	return err
}

func (t *tracedIndex) Classify(query *genome.Sequence, minFrac float64) (core.RefMatch, core.Stats, error) {
	start := t.rec.now()
	best, st, err := t.Index.Classify(query, minFrac)
	t.rec.probed(query.String(), t.parent, start, t.rec.now(), st, best.Votes)
	return best, st, err
}

func (t *tracedIndex) Add(rec genome.Record) error {
	start := t.rec.now()
	err := t.Index.Add(rec)
	t.rec.add(rec.ID, spanAdd, t.parent, start, t.rec.now())
	if err == nil && rec.Seq != nil {
		t.rec.mu.Lock()
		t.rec.added += rec.Seq.Len() - t.Describe().Window + 1
		t.rec.mu.Unlock()
	}
	return err
}

func (t *tracedIndex) Remove(refIdx int) error {
	id := t.Index.Ref(refIdx).ID
	start := t.rec.now()
	err := t.Index.Remove(refIdx)
	t.rec.add(id, spanRemove, t.parent, start, t.rec.now())
	return err
}

// tracedBackend decorates the wire.Backend the wire server executes
// requests on.
type tracedBackend struct {
	wire.Backend
	rec *recorder
}

func (t tracedBackend) Search(ctx context.Context, pattern []byte, both bool) (wire.SearchResult, error) {
	request := string(pattern) // the frame buffer is reused after the call
	start := t.rec.now()
	res, err := t.Backend.Search(ctx, pattern, both)
	t.rec.add(request, spanBackend, spanClient, start, t.rec.now())
	return res, err
}

func (t tracedBackend) Classify(ctx context.Context, read []byte, minFraction float64) (wire.ClassifyResult, error) {
	request := string(read)
	start := t.rec.now()
	res, err := t.Backend.Classify(ctx, read, minFraction)
	t.rec.add(request, spanBackend, spanClient, start, t.rec.now())
	return res, err
}

// traceHandler wraps the server's whole handler chain in a span.
// Requests without the identifier header (none in a traced pass) pass
// through unrecorded.
func traceHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		request := r.Header.Get(traceHeader)
		start := rec.now()
		next.ServeHTTP(w, r)
		if request != "" {
			rec.add(request, spanHandler, spanClient, start, rec.now())
		}
	})
}

// selfTimes gives, per span name, each span's self time in
// nanoseconds: its duration minus the part of its interval that spans
// naming it as parent (within the same request) cover. Children of one
// parent on one request do not overlap here — every seam is entered
// once per request, or by calls that run one after another — so the
// covered part is the sum of the children clipped to the parent.
func selfTimes(spans []span) map[string][]float64 {
	type key struct{ request, name string }
	covered := map[key]int64{}
	byKey := map[key]span{}
	for _, s := range spans {
		byKey[key{s.Request, s.Name}] = s
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Request, s.Parent}]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			covered[key{s.Request, s.Parent}] += hi - lo
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.EndNs - s.StartNs - covered[key{s.Request, s.Name}]
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// durations gives each span's full duration in nanoseconds by name.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs))
	}
	return out
}

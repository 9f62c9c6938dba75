package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 50}, {0.95, 100}, {0.9, 90}, {0.91, 100}, {1, 100},
	} {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// A run's value is the median of its segments' values: one segment a
	// noisy neighbour hit does not move it.
	if got := median([]float64{101, 99, 100, 5000, 98}); got != 100 {
		t.Errorf("median of segments = %v, want 100", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSegmentOf(t *testing.T) {
	start := time.Now()
	win := measureWindow{start: start, segment: time.Second, segments: 3}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{{-time.Millisecond, -1}, {0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {2500 * time.Millisecond, 2}, {4 * time.Second, 2}} {
		if got := win.segmentOf(start.Add(tc.at)); got != tc.want {
			t.Errorf("segmentOf(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// inputBytes renders everything the program under test is fed.
func inputBytes(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	in := generateRefs(w, seed)
	generateQueries(w, in, seed, 4)
	var buf bytes.Buffer
	if err := genome.WriteFASTA(&buf, append(in.Refs, in.Dyn...), 0); err != nil {
		t.Fatal(err)
	}
	for _, pool := range [][]query{in.Pool, in.Trace} {
		for _, q := range pool {
			buf.WriteString(q.Text + " " + q.Origin + "\n")
		}
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(32)
		a, b, c := inputBytes(t, w, 7), inputBytes(t, w, 7), inputBytes(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, same inputs", w.Name)
		}
	}
}

func TestPoolMixAndDistinctness(t *testing.T) {
	w := workloads[2].scaled(4) // 25% present
	in := generateRefs(w, 3)
	generateQueries(w, in, 3, 0)
	fillOracle(in.Refs, in.Pool, in.Trace)
	present := 0
	for _, q := range in.Pool {
		if len(q.Want) > 0 {
			present++
		}
	}
	if present != len(in.Pool)/4 {
		t.Errorf("%d of %d pool queries present, want a quarter", present, len(in.Pool))
	}
	seen := map[string]bool{}
	for _, q := range in.Trace {
		if seen[q.Text] {
			t.Fatalf("trace pool repeats %s", q.Text)
		}
		seen[q.Text] = true
	}
}

// The rolling oracle must agree with the naive one-pattern scan.
func TestOracleMatchesNaiveScan(t *testing.T) {
	src := rng.New(11)
	unit := genome.Random(40, src)
	refs := []genome.Record{
		{ID: "a", Seq: genome.Random(300, src)},
		{ID: "b", Seq: unit.Append(unit).Append(unit)}, // repeats: several hits per pattern
		{ID: "c", Seq: genome.Random(33, src)},
	}
	var pool []query
	for _, r := range refs {
		for off := 0; off+window <= r.Seq.Len(); off += 7 {
			pool = append(pool, patternQuery(r.Seq.Slice(off, off+window)))
		}
	}
	pool = append(pool, patternQuery(genome.Random(window, src)))
	fillOracle(refs, pool)
	for _, q := range pool {
		var want []hit
		for _, r := range refs {
			for from := 0; ; {
				off := r.Seq.Index(q.Seq, from)
				if off < 0 {
					break
				}
				want = append(want, hit{Ref: r.ID, Off: off})
				from = off + 1
			}
		}
		if !sameHits(q.Want, want) {
			t.Fatalf("%s: oracle %v, naive scan %v", q.Text, q.Want, want)
		}
	}
	if got := commonHits([]hit{{"a", 1}, {"b", 2}}, []hit{{"b", 2}, {"c", 3}}); got != 1 {
		t.Errorf("commonHits = %d, want 1", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Request: "r1", Name: spanClient, StartNs: 0, EndNs: 100},
		{Request: "r1", Name: spanBackend, Parent: spanClient, StartNs: 10, EndNs: 90},
		{Request: "r1", Name: spanIndex, Parent: spanBackend, StartNs: 30, EndNs: 70},
		// A second request whose child overruns its parent is clipped.
		{Request: "r2", Name: spanClient, StartNs: 200, EndNs: 260},
		{Request: "r2", Name: spanIndex, Parent: spanClient, StartNs: 250, EndNs: 300},
		// A span whose parent was never recorded counts against nobody.
		{Request: "r3", Name: spanAdd, Parent: spanHandler, StartNs: 5, EndNs: 9},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		spanClient:  {20, 50},
		spanBackend: {40},
		spanIndex:   {40, 50},
		spanAdd:     {4},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	// Along one request the self times sum to the root span.
	if sum := self[spanClient][0] + self[spanBackend][0] + self[spanIndex][0]; sum != 100 {
		t.Errorf("self times of r1 sum to %v, want the root's 100", sum)
	}
	if got := durations(spans)[spanClient]; !reflect.DeepEqual(got, []float64{100, 60}) {
		t.Errorf("durations = %v", got)
	}
}

// smallIndex builds a real library to decorate.
func smallIndex(t *testing.T) (core.Index, []genome.Record) {
	t.Helper()
	w := workloads[2].scaled(8)
	in := generateRefs(w, 5)
	b, err := buildIndex(w, in.Refs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := b.idx.Close(); err != nil {
			t.Error(err)
		}
	})
	return b.idx, in.Refs
}

func TestTracedIndexPassesAnswersThrough(t *testing.T) {
	idx, refs := smallIndex(t)
	rec := newRecorder()
	traced := &tracedIndex{Index: idx, rec: rec, parent: spanClient}
	src := rng.New(9)
	pats := []*genome.Sequence{
		refs[0].Seq.Slice(3, 3+window), genome.Random(window, src),
		refs[0].Seq.Slice(40, 40+window), genome.Random(window-1, src), // too short: an error
	}
	for _, p := range pats {
		m1, s1, e1 := idx.Lookup(p)
		m2, s2, e2 := traced.Lookup(p)
		if !reflect.DeepEqual(m1, m2) || s1 != s2 || !sameErr(e1, e2) {
			t.Errorf("Lookup(%s): traced (%v, %v, %v), plain (%v, %v, %v)", p, m2, s2, e2, m1, s1, e1)
		}
	}
	plain, through := make([]core.BatchResult, 3), make([]core.BatchResult, 3)
	e1, e2 := idx.LookupBlock(pats[:3], plain), traced.LookupBlock(pats[:3], through)
	if !reflect.DeepEqual(plain, through) || !sameErr(e1, e2) {
		t.Errorf("LookupBlock: traced %v (%v), plain %v (%v)", through, e2, plain, e1)
	}
	for _, read := range []*genome.Sequence{refs[0].Seq.Slice(0, 4*window), genome.Random(4*window, src)} {
		b1, s1, e1 := idx.Classify(read, classifyFrac)
		b2, s2, e2 := traced.Classify(read, classifyFrac)
		if b1 != b2 || s1 != s2 || !sameErr(e1, e2) {
			t.Errorf("Classify: traced (%v, %v, %v), plain (%v, %v, %v)", b2, s2, e2, b1, s1, e1)
		}
	}
	extra := genome.Record{ID: "extra", Seq: genome.Random(3*window, src)}
	if err := traced.Add(extra); err != nil {
		t.Fatal(err)
	}
	if got := idx.Ref(idx.NumRefs() - 1).ID; got != "extra" {
		t.Errorf("Add did not reach the index: last reference %q", got)
	}
	if err := traced.Remove(idx.NumRefs() - 1); err != nil {
		t.Fatal(err)
	}
	if e1, e2 := idx.Remove(idx.NumRefs()-1), traced.Remove(idx.NumRefs()-1); !sameErr(e1, e2) || e1 == nil {
		t.Errorf("Remove of a removed reference: traced %v, plain %v", e2, e1)
	}
	// One span per probe (one per pattern of a block), one per mutation.
	count := map[string]int{}
	for _, s := range rec.spans {
		count[s.Name]++
	}
	if count[spanIndex] != 4+3+2 || count[spanAdd] != 1 || count[spanRemove] != 2 {
		t.Errorf("span counts %v", count)
	}
	if rec.added != 2*window+1 {
		t.Errorf("added %d windows, want %d", rec.added, 2*window+1)
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// fakeBackend answers from fixed values.
type fakeBackend struct{ err error }

func (f fakeBackend) Search(_ context.Context, pattern []byte, both bool) (wire.SearchResult, error) {
	return wire.SearchResult{Matches: []wire.Match{{Ref: string(pattern), Offset: len(pattern)}}, Probes: 7}, f.err
}

func (f fakeBackend) Classify(_ context.Context, read []byte, minFraction float64) (wire.ClassifyResult, error) {
	return wire.ClassifyResult{Ref: string(read), Fraction: minFraction}, f.err
}

func (f fakeBackend) Batch(context.Context, [][]byte, int) (wire.BatchResult, error) {
	return wire.BatchResult{Probes: 3}, f.err
}

func (f fakeBackend) Stats() wire.StatsResult { return wire.StatsResult{Backend: "fake"} }

func TestTracedBackendPassesAnswersThrough(t *testing.T) {
	for _, plain := range []fakeBackend{{}, {err: errors.New("boom")}} {
		rec := newRecorder()
		traced := tracedBackend{Backend: plain, rec: rec}
		ctx := context.Background()
		s1, e1 := plain.Search(ctx, []byte("ACGT"), false)
		s2, e2 := traced.Search(ctx, []byte("ACGT"), false)
		if !reflect.DeepEqual(s1, s2) || e1 != e2 {
			t.Errorf("Search: traced (%v, %v), plain (%v, %v)", s2, e2, s1, e1)
		}
		c1, e1 := plain.Classify(ctx, []byte("TTGA"), 0.5)
		c2, e2 := traced.Classify(ctx, []byte("TTGA"), 0.5)
		if c1 != c2 || e1 != e2 {
			t.Errorf("Classify: traced (%v, %v), plain (%v, %v)", c2, e2, c1, e1)
		}
		if traced.Stats() != plain.Stats() {
			t.Error("Stats differs")
		}
		if len(rec.spans) != 2 || rec.spans[0].Request != "ACGT" || rec.spans[1].Request != "TTGA" {
			t.Errorf("spans %v", rec.spans)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != d.Bound {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// The smoke pass: every workload at 1/32 scale with 100 ms segments,
// both passes, everything checked.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke pass starts servers and takes a few seconds")
	}
	opt := options{
		seed: 1, seconds: 0.3, segments: 3, warm: 20 * time.Millisecond,
		setups: 1, e2e: true, traced: true, scale: 32, out: t.TempDir(),
	}
	for _, w := range workloads {
		start := time.Now()
		rec, err := runWorkload(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		t.Logf("%s: %v", w.Name, time.Since(start))
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.Name, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		for _, d := range endToEnd {
			if v, ok := rec.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end %s = %v", w.Name, d.Name, v)
			}
		}
		var out bytes.Buffer
		if err := report(rec, opt, &out); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
		}
		if len(last.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics on the last line, want %d", w.Name, len(last.Metrics), len(endToEnd)+len(perLayer))
		}
		if _, err := os.Stat(opt.out + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

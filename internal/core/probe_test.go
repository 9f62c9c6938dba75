package core

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// seedScalarProbe replicates the seed implementation of Probe — a
// serial full scan through per-bucket hypervector objects with no
// early abandonment — as the golden reference the arena kernel must
// match candidate-for-candidate — or, under a one-stage plan, the
// naive prefix scan of scalarSketchProbe.
func seedScalarProbe(l *Library, hv *hdc.HV) []Candidate {
	if sn := hdcOf(l.snap.Load()); sn.plan.oneStage {
		return scalarSketchProbe(sn, hv)
	}
	tau := l.Describe().Threshold
	var out []Candidate
	for i, n := 0, l.Describe().Buckets; i < n; i++ {
		if score := float64(l.BucketVector(i).Dot(hv)); score >= tau {
			out = append(out, Candidate{Bucket: i, Score: score})
		}
	}
	return out
}

// scalarSketchProbe is seedScalarProbe where the rows are their
// sketches: every stored row's distance to the query's prefix against
// the view's stage-1 bound, scored over the prefix. Tombstoned rows are
// scanned as well — they stay in the arena until compaction.
func scalarSketchProbe(sn *hdcView, hv *hdc.HV) []Candidate {
	var out []Candidate
	for g := 0; g < sn.nBkts; g++ {
		seg, i := sn.locate(g)
		w := seg.planeWords
		if h := bitvec.HammingWords(seg.planeRow(i), hv.Words()[:w]); h <= sn.plan.sketchBound {
			score := float64(64*w - 2*h)
			out = append(out, Candidate{Bucket: g, Score: score})
		}
	}
	return out
}

func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildProbeLib builds a frozen library over a few random references in
// the given encoding.
func buildProbeLib(t *testing.T, approx bool, seed uint64) (*Library, []*genome.Sequence) {
	t.Helper()
	p := Params{Dim: 2048, Window: 24, Approx: approx, Seed: seed}
	if approx {
		p.MutTolerance = 2
	}
	lib := mustLibrary(t, p)
	src := rng.New(seed ^ 0xfeed)
	var refs []*genome.Sequence
	for i := 0; i < 3; i++ {
		ref := genome.Random(1500, src)
		refs = append(refs, ref)
		if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	return lib, refs
}

// probeQueries yields a mix of member windows, mutated member windows,
// and random absent windows — together they exercise candidate hits,
// near-threshold scores, and early-abandoned rows.
func probeQueries(t *testing.T, lib *Library, refs []*genome.Sequence, seed uint64) []*hdc.HV {
	t.Helper()
	src := rng.New(seed ^ 0xabcd)
	w := lib.Params().Window
	encode := func(s *genome.Sequence) *hdc.HV {
		if lib.Params().Approx {
			return lib.Encoder().EncodeWindowApprox(s, 0)
		}
		return lib.Encoder().EncodeWindowExact(s, 0)
	}
	var qs []*hdc.HV
	for i := 0; i < 12; i++ {
		ref := refs[i%len(refs)]
		off := src.Intn(ref.Len() - w)
		window := ref.Slice(off, off+w)
		qs = append(qs, encode(window))
		mut, _ := genome.SubstituteExactly(window, 1+i%3, src)
		qs = append(qs, encode(mut))
		qs = append(qs, encode(genome.Random(w, src)))
	}
	return qs
}

// TestProbeGoldenEquivalence asserts the arena + early-abandon
// probe returns byte-identical candidates to the seed scalar
// scan in both encodings.
func TestProbeGoldenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		approx bool
	}{
		{"sealed-exact", false},
		{"sealed-approx", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, refs := buildProbeLib(t, tc.approx, 77)
			for qi, hv := range probeQueries(t, lib, refs, 99) {
				want := seedScalarProbe(lib, hv)
				var stats Stats
				got, err := lib.Probe(hv, &stats)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCandidates(got, want) {
					t.Fatalf("query %d: kernel probe diverges from scalar scan:\n got %+v\nwant %+v", qi, got, want)
				}
				if stats.BucketProbes != lib.Describe().Buckets || stats.CandidateBuckets != len(want) {
					t.Fatalf("query %d: stats %+v inconsistent with %d buckets / %d candidates",
						qi, stats, lib.Describe().Buckets, len(want))
				}
			}
		})
	}
}

// TestProbeEquivalenceAfterRoundTrip asserts the arena loaded by
// ReadIndex probes identically to the arena built by Freeze.
func TestProbeEquivalenceAfterRoundTrip(t *testing.T) {
	lib, refs := buildProbeLib(t, true, 7)
	back := saveLoad(t, lib)
	for _, hv := range probeQueries(t, lib, refs, 8) {
		want, err := lib.Probe(hv, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Probe(hv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCandidates(got, want) {
			t.Fatalf("loaded library probes differently:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestLookupAllocs is the allocation regression gate for the lookup hot
// path: with the scratch pool warm, a Lookup that finds nothing must
// not allocate at all, and a Lookup that hits stays within the small
// budget of its result slice and sort.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool allocation counts")
	}
	lib, refs := buildProbeLib(t, false, 55)
	w := lib.Params().Window
	miss := genome.Random(w, rng.New(9001))
	hit := refs[0].Slice(100, 100+w)
	// Warm the scratch pool (and confirm both paths work).
	if _, _, err := lib.Lookup(miss); err != nil {
		t.Fatal(err)
	}
	if m, _, err := lib.Lookup(hit); err != nil || len(m) == 0 {
		t.Fatalf("warmup hit lookup: %v matches, err %v", len(m), err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, _, err := lib.Lookup(miss); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("miss Lookup allocates %.1f times per op, want 0", avg)
	}
	// A hit allocates the caller-owned match slice and the sort.Slice
	// plumbing; budget a small constant so regressions (per-bucket or
	// per-probe allocations) trip the gate.
	if avg := testing.AllocsPerRun(50, func() {
		if _, _, err := lib.Lookup(hit); err != nil {
			t.Fatal(err)
		}
	}); avg > 8 {
		t.Errorf("hit Lookup allocates %.1f times per op, want ≤ 8", avg)
	}
	// The same gates through Search with a reused Answer, whose match
	// buffers the next Search refills.
	ctx := context.Background()
	q := Query{Patterns: []*genome.Sequence{miss}}
	var a Answer
	search := func(p *genome.Sequence) {
		q.Patterns[0] = p
		if err := lib.Search(ctx, q, &a); err != nil || a.Results[0].Err != nil {
			t.Fatal(err, a.Results[0].Err)
		}
	}
	if search(hit); len(a.Results[0].Matches) == 0 {
		t.Fatal("warmup hit Search found nothing")
	}
	if avg := testing.AllocsPerRun(50, func() { search(miss) }); avg > 0 {
		t.Errorf("miss Search allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { search(hit) }); avg > 8 {
		t.Errorf("hit Search allocates %.1f times per op, want ≤ 8", avg)
	}
}

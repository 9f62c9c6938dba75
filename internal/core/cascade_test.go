package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// cascadeParams is the geometry of bench's exact HDC workloads: the
// model gives it a 40-word sketch, so every scan below runs both stages.
var cascadeParams = Params{Dim: 8192, Window: 32, Capacity: 16, Sealed: true, Seed: 42}

// cascadePair builds the same library twice — once as the parameters
// derive it, once with the sketch plan forced to the full row, which is
// the full-row scan the cascade must reproduce — and applies the same
// life to both: sixteen references in one segment, or (segmented) in
// sixteen, one from Freeze and the rest sealed one per Add; then the
// given references removed; then optionally compacted.
func cascadePair(t *testing.T, segmented bool, remove []int, compact bool) (lib, full *Library, refs []*genome.Sequence) {
	t.Helper()
	lib, full = mustLibrary(t, cascadeParams), mustLibrary(t, cascadeParams)
	full.sketch = SketchPlan{Words: cascadeParams.Dim / 64}
	src := rng.New(0xca5cade)
	for i := 0; i < 16; i++ {
		refs = append(refs, genome.Random(150+i, src))
	}
	for _, l := range []*Library{lib, full} {
		for i, ref := range refs {
			if err := l.Add(genome.Record{ID: fmt.Sprintf("ref%d", i), Seq: ref}); err != nil {
				t.Fatal(err)
			}
			if segmented && i == 0 {
				l.Freeze()
				l.SetSealThreshold(1)
			}
		}
		l.Freeze()
		for _, r := range remove {
			if err := l.Remove(r); err != nil {
				t.Fatal(err)
			}
		}
		if compact {
			if _, err := l.Compact(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lib, full, refs
}

// cascadeQueries mixes windows of every reference (removed ones
// included — their rows stay in the arena until compaction), windows
// one substitution away from a member, and random absent windows.
func cascadeQueries(refs []*genome.Sequence) []*genome.Sequence {
	src := rng.New(0x9e7)
	w := cascadeParams.Window
	var qs []*genome.Sequence
	for i, ref := range refs {
		off := src.Intn(ref.Len() - w)
		member := ref.Slice(off, off+w)
		qs = append(qs, member)
		if i%2 == 0 {
			mut, _ := genome.SubstituteExactly(member, 1, src)
			qs = append(qs, mut)
		}
		qs = append(qs, genome.Random(w, src))
	}
	return qs
}

// TestCascadeMatchesFullRowScan holds the engaged cascade to the
// full-row scan across the lives a segment can lead and every probe
// entry point: candidates byte-identical to a naive scan of the bucket
// vectors, matches and stats identical to the twin library that scans
// whole rows.
func TestCascadeMatchesFullRowScan(t *testing.T) {
	if p := mustLibrary(t, cascadeParams).sketch; p.Words != 40 {
		t.Fatalf("sketch plan %+v: the cascade is not engaged at %+v", p, cascadeParams)
	}
	for _, tc := range []struct {
		name      string
		segmented bool
		remove    []int
		compact   bool
		reopen    bool
		mode      LoadMode
	}{
		{name: "one segment"},
		{name: "16 segments", segmented: true},
		{name: "tombstoned", segmented: true, remove: []int{2, 9}},
		{name: "after Compact", segmented: true, remove: []int{2, 9}, compact: true},
		{name: "v3 heap reopen", segmented: true, remove: []int{5}, reopen: true, mode: LoadHeap},
		{name: "v3 mmap reopen", segmented: true, remove: []int{5}, reopen: true, mode: MapArena},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, full, refs := cascadePair(t, tc.segmented, tc.remove, tc.compact)
			if tc.reopen {
				lib = openLib(t, writeV3File(t, lib), tc.mode)
				defer lib.Close()
			}
			if got := lib.NumSegments(); tc.segmented && !tc.compact && got != len(refs) {
				t.Fatalf("%d segments, want %d", got, len(refs))
			}
			nB, nW := int64(lib.NumBuckets()), int64(lib.snap.Load().total) // tombstoned windows keep their metadata
			if got, want := lib.MemoryFootprint(), nB*(8192/8+40*8)+nW*8; got != want {
				t.Fatalf("footprint %d, want arena + sketch plane + metadata = %d", got, want)
			}

			pats := cascadeQueries(refs)
			hvs := make([]*hdc.HV, len(pats))
			for i, p := range pats {
				hvs[i] = lib.Encoder().EncodeWindowExact(p, 0)
			}
			hits := 0
			for i, hv := range hvs {
				want := seedScalarProbe(lib, hv)
				got, err := lib.Probe(hv, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameCandidates(got, want) {
					t.Fatalf("query %d: Probe %+v, full-row scan %+v", i, got, want)
				}
				hits += len(want)
			}
			if hits == 0 {
				t.Fatal("no query lit a bucket: the comparison is vacuous")
			}
			for _, width := range []int{2, 3, 8} {
				for at := 0; at+width <= len(hvs); at += width {
					got, err := lib.ProbeMulti(hvs[at:at+width], nil)
					if err != nil {
						t.Fatal(err)
					}
					for j := range got {
						if want := seedScalarProbe(lib, hvs[at+j]); !sameCandidates(got[j], want) {
							t.Fatalf("ProbeMulti width %d query %d: %+v, full-row scan %+v", width, at+j, got[j], want)
						}
					}
				}
			}
			for i, p := range pats {
				gm, gs, gerr := lib.Lookup(p)
				wm, ws, werr := full.Lookup(p)
				if gerr != nil || werr != nil {
					t.Fatal(gerr, werr)
				}
				if gs != ws || len(gm) != len(wm) || (len(wm) > 0 && !reflect.DeepEqual(gm, wm)) {
					t.Fatalf("pattern %d: Lookup %v %+v, full-row twin %v %+v", i, gm, gs, wm, ws)
				}
			}
			for at := 0; at < len(pats); at += BlockWidth {
				block := pats[at:minInt(at+BlockWidth, len(pats))]
				got, want := make([]BatchResult, len(block)), make([]BatchResult, len(block))
				if err := lib.LookupBlock(block, got); err != nil {
					t.Fatal(err)
				}
				if err := full.LookupBlock(block, want); err != nil {
					t.Fatal(err)
				}
				for j := range block {
					if got[j].Stats != want[j].Stats || len(got[j].Matches) != len(want[j].Matches) ||
						(len(want[j].Matches) > 0 && !reflect.DeepEqual(got[j].Matches, want[j].Matches)) {
						t.Fatalf("block at %d slot %d: %+v, full-row twin %+v", at, j, got[j], want[j])
					}
				}
			}

			c, fc := lib.Counters(), full.Counters()
			if c.SketchRows == 0 || c.SketchSurvivors == 0 || c.SketchSurvivors > c.SketchRows/8 {
				t.Fatalf("sketch counters %d survivors of %d rows: stage 1 is not selective", c.SketchSurvivors, c.SketchRows)
			}
			if fc.SketchRows != 0 || fc.SketchSurvivors != 0 {
				t.Fatalf("full-row twin counted a sketch stage: %+v", fc)
			}
			if c.EarlyAbandons == 0 || fc.EarlyAbandons == 0 {
				t.Fatalf("early abandons %d (cascade) / %d (full row): rows that were not candidates went uncounted", c.EarlyAbandons, fc.EarlyAbandons)
			}
		})
	}
}

// TestSketchModelHolds checks the binomial model SketchPlan rests on
// against the encoder and the bundling it describes: over 10⁵ member
// (query, row) pairs the prefix distance has the model's mean and
// standard deviation within 3 % and never exceeds h₁, and the share of
// non-member rows surviving stage 1 is within 2× of FPR₁.
func TestSketchModelHolds(t *testing.T) {
	if raceEnabled {
		t.Skip("a statistical check of 10⁵ encodings; the race detector adds nothing and costs a minute")
	}
	const members = 100_000
	p := cascadeParams
	lib := mustLibrary(t, p)
	plan := lib.sketch
	ref := genome.Random(members+p.Window-1, rng.New(0x5ca1e))
	if err := lib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()

	var dist stats.Welford
	worst := 0
	lib.Encoder().SlideExact(ref, 1, func(start int, hv *hdc.HV) bool {
		// Stride 1 from one reference at capacity C: window k is in bucket k/C.
		row := lib.BucketVector(start / p.Capacity).Words()
		d := bitvec.HammingWords(row[:plan.Words], hv.Words()[:plan.Words])
		dist.Add(float64(d))
		worst = maxInt(worst, d)
		return true
	})
	if dist.N() != members {
		t.Fatalf("%d member pairs, want %d", dist.N(), members)
	}
	n := float64(64 * plan.Words)
	pm := (1 - MajorityCorrelation(p.Capacity)) / 2
	mean, sigma := n*pm, math.Sqrt(n*pm*(1-pm))
	if math.Abs(dist.Mean()-mean) > 0.03*mean || math.Abs(dist.StdDev()-sigma) > 0.03*sigma {
		t.Errorf("member prefix distance %.1f ± %.2f, model %.1f ± %.2f", dist.Mean(), dist.StdDev(), mean, sigma)
	}
	if worst > plan.Bound {
		t.Errorf("a member row at prefix distance %d would be dropped by h1 = %d", worst, plan.Bound)
	}

	src := rng.New(0xab5e17)
	for i := 0; i < 64; i++ {
		if _, err := lib.Probe(lib.Encoder().EncodeWindowExact(genome.Random(p.Window, src), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := lib.Counters()
	observed := float64(c.SketchSurvivors) / float64(c.SketchRows)
	if observed < plan.Survive/2 || observed > 2*plan.Survive {
		t.Errorf("stage 1 passed %.4f of %d non-member rows, model FPR1 %.4f", observed, c.SketchRows, plan.Survive)
	}
	t.Logf("member prefix %.1f ± %.2f (model %.1f ± %.2f), max %d under h1 %d; survivors %.4f vs FPR1 %.4f",
		dist.Mean(), dist.StdDev(), mean, sigma, worst, plan.Bound, observed, plan.Survive)
}

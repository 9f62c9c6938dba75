package core

import (
	"reflect"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// TestLookupBlockEquivalence: a caller-assembled block returns, slot
// for slot, exactly what individual Lookup calls return — matches,
// stats, and errors — across hit, miss, and invalid patterns.
func TestLookupBlockEquivalence(t *testing.T) {
	lib, refs := buildSegmentedProbeLib(t, 3, 8100)
	src := rng.New(8101)
	w := lib.Params().Window
	pats := []*genome.Sequence{
		refs[0].Slice(10, 10+w),
		genome.Random(w, src),
		nil,
		refs[1].Slice(0, w),
		genome.Random(w-1, src), // too short
		refs[2].Slice(5, 5+2*w), // multi-alignment pattern
	}
	results := make([]BatchResult, len(pats))
	// Pre-poison the spine: LookupBlock must zero reused slots.
	for i := range results {
		results[i] = BatchResult{Matches: []Match{{Ref: 99}}, Stats: Stats{Alignments: 99}}
	}
	if err := lib.LookupBlock(pats, results); err != nil {
		t.Fatal(err)
	}
	for i, p := range pats {
		m, st, err := lib.Lookup(p)
		got := results[i]
		if (got.Err == nil) != (err == nil) || (err != nil && got.Err.Error() != err.Error()) {
			t.Errorf("slot %d: err %v, want %v", i, got.Err, err)
		}
		if got.Stats != st {
			t.Errorf("slot %d: stats %+v, want %+v", i, got.Stats, st)
		}
		if len(got.Matches) != len(m) || (len(m) > 0 && !reflect.DeepEqual(got.Matches, m)) {
			t.Errorf("slot %d: matches %v, want %v", i, got.Matches, m)
		}
	}
}

// TestLookupBlockValidation pins the contract errors.
func TestLookupBlockValidation(t *testing.T) {
	lib, refs := buildSegmentedProbeLib(t, 1, 8200)
	w := lib.Params().Window
	pats := make([]*genome.Sequence, BlockWidth+1)
	for i := range pats {
		pats[i] = refs[0].Slice(0, w)
	}
	if err := lib.LookupBlock(pats, make([]BatchResult, len(pats))); err == nil {
		t.Error("oversized block accepted")
	}
	if err := lib.LookupBlock(pats[:2], make([]BatchResult, 1)); err == nil {
		t.Error("short results slice accepted")
	}
	if err := lib.LookupBlock(nil, nil); err != nil {
		t.Errorf("empty block should be a no-op, got %v", err)
	}
	unfrozen, err := NewLibrary(Params{Dim: 1024, Window: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := unfrozen.LookupBlock(pats[:1], make([]BatchResult, 1)); err == nil {
		t.Error("unfrozen library accepted")
	}
}

// TestRankWindowsMatchesLookupLong: decomposing a read into
// non-overlapping windows, looking each up individually, and ranking
// with RankWindows reproduces a Long Search's output exactly.
func TestRankWindowsMatchesLookupLong(t *testing.T) {
	lib, refs := buildSegmentedProbeLib(t, 2, 8300)
	w := lib.Params().Window
	src := rng.New(8301)
	for _, minFrac := range []float64{0.1, 0.5, 0.9} {
		for trial := 0; trial < 4; trial++ {
			ref := refs[trial%len(refs)]
			start := src.Intn(ref.Len() - 5*w)
			read := ref.Slice(start, start+4*w+w/2) // partial last window is dropped by both paths
			want, _, err := SearchLong(lib, read, minFrac)
			if err != nil {
				t.Fatal(err)
			}
			var wins [][]Match
			var offs []int
			for base := 0; base+w <= read.Len(); base += w {
				m, _, err := lib.Lookup(read.Slice(base, base+w))
				if err != nil {
					t.Fatal(err)
				}
				wins = append(wins, m)
				offs = append(offs, base)
			}
			got := RankWindows(wins, offs, minFrac)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("minFrac %v trial %d: RankWindows %+v, want %+v", minFrac, trial, got, want)
			}
		}
	}
}

// TestRankWindowsEmpty: no windows, no matches — empty outcomes stay
// empty rather than fabricating support.
func TestRankWindowsEmpty(t *testing.T) {
	if out := RankWindows(nil, nil, 0.5); len(out) != 0 {
		t.Errorf("RankWindows(nil) = %v", out)
	}
	if out := RankWindows([][]Match{{}, {}}, []int{0, 24}, 0.5); len(out) != 0 {
		t.Errorf("RankWindows(no matches) = %v", out)
	}
}

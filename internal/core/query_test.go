package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// TestSearchShapes pins what every Query shape a caller sends costs and
// counts — the Counters deltas and the answer's Stats — to the numbers
// the one-method-per-shape probes gave on the same library before
// Search took their place (the single lookup, the both-strand lookup,
// the context batch, the long lookup and the both-strand classify). A
// one-pattern lookup is a batch of one, as it was on /v1/batch: one
// blocked probe that observes ctx. Only a lookup
// of patterns observes ctx; a both-strand or Long Search under a
// canceled context answers in full. The pool sizes itself from
// GOMAXPROCS, so the table runs at 1, 2 and 4.
func TestSearchShapes(t *testing.T) {
	lib, refs := buildProbeLib(t, false, 3200)
	w := lib.Params().Window
	hit := refs[0].Slice(100, 100+w)
	rcPat := refs[1].Slice(200, 200+w).ReverseComplement()
	src := rng.New(3300)
	var pats []*genome.Sequence
	for i := 0; i < 64; i++ {
		switch {
		case i == 5:
			pats = append(pats, genome.Random(w-1, src)) // refused: no probe
		case i%3 == 0:
			pats = append(pats, genome.Random(w, src))
		default:
			off := (i * 19) % 1400
			pats = append(pats, refs[i%3].Slice(off, off+w))
		}
	}
	read := refs[2].Slice(0, 10*w)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	bg := context.Background()
	one := func(p *genome.Sequence) []*genome.Sequence { return []*genome.Sequence{p} }

	for _, tc := range []struct {
		name     string
		ctx      context.Context
		q        Query
		counters Counters // BucketProbes, BlockedProbes, BlockedWindows, BatchCancellations
		stats    Stats
		answer   int // matches (lookups), entries (batches) or votes*10+strand (Long)
		err      error
	}{
		{"forward", bg, Query{Patterns: one(hit)}, Counters{BucketProbes: 296, BlockedProbes: 1, BlockedWindows: 1}, Stats{1, 296, 1, 15, 360}, 1, nil},
		{"forward-canceled", canceled, Query{Patterns: one(pats[0])}, Counters{BatchCancellations: 1}, Stats{}, 1, context.Canceled},
		{"both", bg, Query{Patterns: one(rcPat), Both: true}, Counters{BucketProbes: 592, BlockedProbes: 1, BlockedWindows: 2}, Stats{2, 592, 1, 15, 360}, 1, nil},
		{"both-canceled", canceled, Query{Patterns: one(rcPat), Both: true}, Counters{BucketProbes: 592, BlockedProbes: 1, BlockedWindows: 2}, Stats{2, 592, 1, 15, 360}, 1, nil},
		{"batch1", bg, Query{Patterns: pats[:1]}, Counters{BucketProbes: 296, BlockedProbes: 1, BlockedWindows: 1}, Stats{1, 296, 0, 0, 0}, 0, nil},
		{"batch9", bg, Query{Patterns: pats[:9]}, Counters{BucketProbes: 2368, BlockedProbes: 2, BlockedWindows: 8}, Stats{8, 2368, 5, 75, 1800}, 9, nil},
		{"batch64", bg, Query{Patterns: pats}, Counters{BucketProbes: 18648, BlockedProbes: 8, BlockedWindows: 63}, Stats{63, 18648, 41, 615, 14760}, 64, nil},
		{"batch9-canceled", canceled, Query{Patterns: pats[:9]}, Counters{BatchCancellations: 1}, Stats{}, 9, context.Canceled},
		{"long", bg, Query{Patterns: one(read), Long: true, MinFrac: 0.5}, Counters{BucketProbes: 2960, BlockedProbes: 2, BlockedWindows: 10}, Stats{10, 2960, 10, 150, 3600}, 100, nil},
		{"long-both", bg, Query{Patterns: one(read.ReverseComplement()), Long: true, Both: true, MinFrac: 0.5}, Counters{BucketProbes: 5920, BlockedProbes: 4, BlockedWindows: 20}, Stats{20, 5920, 10, 150, 3600}, 101, nil},
		{"long-both-canceled", canceled, Query{Patterns: one(read.ReverseComplement()), Long: true, Both: true, MinFrac: 0.5}, Counters{BucketProbes: 5920, BlockedProbes: 4, BlockedWindows: 20}, Stats{20, 5920, 10, 150, 3600}, 101, nil},
	} {
		for _, procs := range []int{1, 2, 4} {
			want := tc.counters
			if tc.name == "batch9" && procs == 4 {
				want.BlockedProbes = 3 // blocks of 3 for four workers
			}
			old := runtime.GOMAXPROCS(procs)
			before := lib.Counters()
			var a Answer
			err := lib.Search(tc.ctx, tc.q, &a)
			after := lib.Counters()
			runtime.GOMAXPROCS(old)
			got := Counters{
				BucketProbes:       after.BucketProbes - before.BucketProbes,
				BlockedProbes:      after.BlockedProbes - before.BlockedProbes,
				BlockedWindows:     after.BlockedWindows - before.BlockedWindows,
				BatchCancellations: after.BatchCancellations - before.BatchCancellations,
			}
			answer := len(a.Results)
			switch {
			case tc.q.Long:
				best, _ := a.Best()
				answer = best.Votes*10 + int(a.Strand)
			case len(tc.q.Patterns) == 1 && tc.err == nil:
				answer = 0
				for _, r := range a.Results {
					answer += len(r.Matches)
				}
			}
			if !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) || got != want || a.Stats != tc.stats || answer != tc.answer {
				t.Errorf("%s at GOMAXPROCS %d: err %v, counters %+v, stats %+v, answer %d; want %v, %+v, %+v, %d",
					tc.name, procs, err, got, a.Stats, answer, tc.err, want, tc.stats, tc.answer)
			}
		}
	}
	// Lookup, kept for the benchmark harness, is still not a blocked probe.
	before := lib.Counters()
	if m, st, err := lib.Lookup(hit); err != nil || len(m) != 1 || st != (Stats{1, 296, 1, 15, 360}) {
		t.Errorf("Lookup = %v, %+v, %v", m, st, err)
	}
	if after := lib.Counters(); after.BucketProbes-before.BucketProbes != 296 || after.BlockedProbes != before.BlockedProbes {
		t.Errorf("Lookup counted %d bucket probes, %d blocked probes", after.BucketProbes-before.BucketProbes, after.BlockedProbes-before.BlockedProbes)
	}
}

// TestSearchRejectsUnusedShapes: a Query shape no caller sends is an
// error, not a code path of its own.
func TestSearchRejectsUnusedShapes(t *testing.T) {
	lib, refs := buildProbeLib(t, false, 3210)
	two := []*genome.Sequence{refs[0].Slice(0, 240), refs[1].Slice(0, 240)}
	for _, q := range []Query{
		{},
		{Both: true},
		{Patterns: two, Long: true, MinFrac: 0.5},
		{Patterns: two, Both: true},
		{Patterns: two, Both: true, Long: true},
	} {
		var a Answer
		if err := lib.Search(context.Background(), q, &a); err == nil {
			t.Errorf("Search(%d patterns, both %v, long %v) accepted", len(q.Patterns), q.Both, q.Long)
		}
	}
}

// TestSearchErrorOrder pins the error texts and their order: a Long
// query shorter than the window is refused before the index is pinned,
// so even an unfrozen index says so; a lookup's short pattern is its
// entry's error; an unfrozen index refuses the rest as Lookup always did.
func TestSearchErrorOrder(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 3220})
	short, long := genome.Random(10, rng.New(3221)), genome.Random(64, rng.New(3222))
	var a Answer
	for _, c := range []struct {
		q    Query
		want string
	}{
		{Query{Patterns: []*genome.Sequence{short}, Long: true}, "core: query shorter than window 16"},
		{Query{Patterns: []*genome.Sequence{long}, Long: true}, "core: Lookup before Freeze"},
		{Query{Patterns: []*genome.Sequence{long}, Both: true}, "core: Lookup before Freeze"},
		{Query{Patterns: []*genome.Sequence{long}}, "core: Lookup before Freeze"},
	} {
		if err := lib.Search(context.Background(), c.q, &a); err == nil || err.Error() != c.want {
			t.Errorf("unfrozen Search(long %v, both %v) = %v, want %q", c.q.Long, c.q.Both, err, c.want)
		}
	}
	if err := lib.Add(genome.Record{ID: "r", Seq: long}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	err := lib.Search(context.Background(), Query{Patterns: []*genome.Sequence{short, long.Slice(0, 16)}}, &a)
	if err != nil || a.Results[0].Err == nil || a.Results[0].Err.Error() != "core: pattern shorter than window 16" ||
		a.Results[1].Err != nil || len(a.Results[1].Matches) != 1 {
		t.Errorf("batch with a short pattern = %v, %+v", err, a.Results)
	}
	err = lib.Search(context.Background(), Query{Patterns: []*genome.Sequence{genome.Random(32, rng.New(3223))}, Long: true, MinFrac: 0.5}, &a)
	if _, berr := a.Best(); err != nil || !errors.Is(berr, ErrNoSupport) || berr.Error() != "core: no reference reaches support 0.5" {
		t.Errorf("unsupported read: Search %v, Best %v", err, berr)
	}
}

// TestSearchBothStrandsOneView: a both-strand Long Search answers from
// the one view it pinned, even when an Add publishes a new generation
// while its forward strand is being probed. The read has ten windows;
// r1 holds six of them forward, r2 eight windows of its reverse
// complement, and r3 — added mid-search — the read and its reverse
// complement whole. Generation 0 alone answers (r2, -, 8) and
// generation 1 alone (r3, +, 10); a search that pinned a view per
// strand answered (r3, -, 10), which belongs to neither.
func TestSearchBothStrandsOneView(t *testing.T) {
	const w = 16
	src := rng.New(3230)
	read := genome.Random(10*w, src)
	rc := read.ReverseComplement()
	pad := func() *genome.Sequence { return genome.Random(100, src) }
	lib := mustLibrary(t, Params{Dim: 4096, Window: w, Seed: 3231})
	for _, rec := range []genome.Record{
		{ID: "r1", Seq: pad().Append(read.Slice(0, 6*w)).Append(pad())},
		{ID: "r2", Seq: pad().Append(rc.Slice(0, 8*w)).Append(pad())},
	} {
		if err := lib.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	r3 := genome.Record{ID: "r3", Seq: read.Append(pad()).Append(rc)}
	probe := lib.k.Probe
	var once sync.Once
	lib.k.Probe = func(v *View, wins []Window, out []*BatchResult) {
		once.Do(func() {
			if err := lib.Add(r3); err != nil {
				t.Error(err)
			}
		})
		probe(v, wins, out)
	}
	q := Query{Patterns: []*genome.Sequence{read}, Both: true, Long: true, MinFrac: 0.5}
	for gen, want := range []struct {
		ref    string
		strand Strand
		votes  int
	}{{"r2", Reverse, 8}, {"r3", Forward, 10}} {
		var a Answer
		if err := lib.Search(context.Background(), q, &a); err != nil {
			t.Fatal(err)
		}
		best, err := a.Best()
		if err != nil || lib.Ref(best.Ref).ID != want.ref || a.Strand != want.strand || best.Votes != want.votes {
			t.Errorf("search %d: (%s, %v, %d), %v; want generation %d's (%s, %v, %d)",
				gen, lib.Ref(best.Ref).ID, a.Strand, best.Votes, err, gen, want.ref, want.strand, want.votes)
		}
	}
}

package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// seedLong replicates the pre-blocking long lookup — one Lookup
// per non-overlapping window, diagonal voting over the matches — as the
// golden reference the query-blocked implementation must match result-
// for-result and stat-for-stat.
func seedLong(l *Library, query *genome.Sequence, minFrac float64) ([]RefMatch, Stats, error) {
	var stats Stats
	w := l.params.Window
	if query == nil || query.Len() < w {
		return nil, stats, fmt.Errorf("core: query shorter than window %d", w)
	}
	type diag struct {
		ref  int
		diff int
	}
	votes := map[diag]int{}
	nWindows := 0
	for qOff := 0; qOff+w <= query.Len(); qOff += w {
		window := query.Slice(qOff, qOff+w)
		matches, s, err := l.Lookup(window)
		stats.Add(s)
		if err != nil {
			return nil, stats, err
		}
		nWindows++
		seen := map[diag]bool{}
		for _, m := range matches {
			d := diag{ref: m.Ref, diff: m.Off - (qOff + m.QueryOff)}
			if !seen[d] {
				seen[d] = true
				votes[d]++
			}
		}
	}
	best := map[int]diag{}
	for d, v := range votes {
		cur, ok := best[d.ref]
		switch {
		case !ok || v > votes[cur]:
			best[d.ref] = d
		case v == votes[cur] && d.diff < cur.diff:
			best[d.ref] = d
		}
	}
	var out []RefMatch
	for ref, d := range best {
		v := votes[d]
		frac := float64(v) / float64(nWindows)
		if frac >= minFrac {
			out = append(out, RefMatch{
				Ref: ref, Votes: v, Windows: nWindows, Offset: d.diff, Fraction: frac,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Votes != out[j].Votes {
			return out[i].Votes > out[j].Votes
		}
		return out[i].Ref < out[j].Ref
	})
	return out, stats, nil
}

// TestProbeMultiGoldenEquivalence asserts ProbeMulti returns, per
// query, exactly what Q sequential Probe calls return — candidates,
// order, scores, excesses, and nil on a miss — in both encodings, with
// stats modeling the full Q × buckets scan.
func TestProbeMultiGoldenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		approx bool
	}{
		{"sealed-exact", false},
		{"sealed-approx", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, refs := buildProbeLib(t, tc.approx, 2077)
			qs := probeQueries(t, lib, refs, 2099) // 36 queries → 4 full blocks + a partial
			var multiStats Stats
			got, err := lib.ProbeMulti(qs, &multiStats)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(qs) {
				t.Fatalf("%d result rows for %d queries", len(got), len(qs))
			}
			var wantStats Stats
			total := 0
			for i, hv := range qs {
				want, err := lib.Probe(hv, &wantStats)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil && got[i] != nil {
					t.Fatalf("query %d: Probe missed but ProbeMulti returned %+v", i, got[i])
				}
				if !sameCandidates(got[i], want) {
					t.Fatalf("query %d: blocked probe diverges from sequential:\n got %+v\nwant %+v", i, got[i], want)
				}
				total += len(want)
			}
			if multiStats.BucketProbes != len(qs)*lib.Describe().Buckets || multiStats.CandidateBuckets != total {
				t.Fatalf("stats %+v inconsistent with %d queries × %d buckets / %d candidates",
					multiStats, len(qs), lib.Describe().Buckets, total)
			}
		})
	}
}

// TestProbeMultiAfterRoundTrip asserts the blocked probe path over an
// arena loaded by ReadIndex matches the freeze-time arena.
func TestProbeMultiAfterRoundTrip(t *testing.T) {
	lib, refs := buildProbeLib(t, true, 2007)
	back := saveLoad(t, lib)
	qs := probeQueries(t, lib, refs, 2008)
	want, err := lib.ProbeMulti(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.ProbeMulti(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !sameCandidates(got[i], want[i]) {
			t.Fatalf("query %d: loaded library blocked-probes differently:\n got %+v\nwant %+v",
				i, got[i], want[i])
		}
	}
}

func TestProbeMultiValidation(t *testing.T) {
	lib, refs := buildProbeLib(t, false, 2055)
	unfrozen := mustLibrary(t, Params{Dim: 2048, Window: 24, Seed: 2056})
	if _, err := unfrozen.ProbeMulti(nil, nil); err == nil {
		t.Fatal("unfrozen ProbeMulti accepted")
	}
	if _, err := lib.ProbeMulti([]*hdc.HV{hdc.NewHV(1024)}, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	out, err := lib.ProbeMulti(nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	_ = refs
}

// TestBlockedProbeCounters checks the blocked-path operational
// counters: one block per probeBlock-sized group of queries, one
// blocked window per query.
func TestBlockedProbeCounters(t *testing.T) {
	lib, refs := buildProbeLib(t, false, 2066)
	qs := probeQueries(t, lib, refs, 2067)[:probeBlock+2] // one full block + one partial
	before := lib.Counters()
	if _, err := lib.ProbeMulti(qs, nil); err != nil {
		t.Fatal(err)
	}
	after := lib.Counters()
	if got := after.BlockedProbes - before.BlockedProbes; got != 2 {
		t.Fatalf("BlockedProbes advanced by %d, want 2", got)
	}
	if got := after.BlockedWindows - before.BlockedWindows; got != int64(len(qs)) {
		t.Fatalf("BlockedWindows advanced by %d, want %d", got, len(qs))
	}
	if got := after.BucketProbes - before.BucketProbes; got != int64(len(qs)*lib.Describe().Buckets) {
		t.Fatalf("BucketProbes advanced by %d, want %d", got, len(qs)*lib.Describe().Buckets)
	}
}

// TestLookupLongBlockedEquivalence pins the query-blocked Long Search to
// the sequential per-window implementation: identical ranked
// references, stats, and errors, for reads that fill partial blocks,
// exact block multiples, mutated reads, misses, and invalid input.
func TestLookupLongBlockedEquivalence(t *testing.T) {
	for _, approx := range []bool{false, true} {
		lib, refs := buildProbeLib(t, approx, 3001)
		w := lib.Params().Window
		src := rng.New(3003)
		var reads []*genome.Sequence
		// Window counts straddling the block width: 1, probeBlock-1,
		// probeBlock, probeBlock+1, and a couple of blocks plus change.
		for _, nwin := range []int{1, probeBlock - 1, probeBlock, probeBlock + 1, 2*probeBlock + 3} {
			off := src.Intn(refs[0].Len() - nwin*w)
			reads = append(reads, refs[0].Slice(off, off+nwin*w))
		}
		// A read crossing two references' vote patterns: mutated copy.
		clean := refs[1].Slice(100, 100+6*w)
		mutated, _ := genome.SubstituteExactly(clean, 4, src)
		reads = append(reads, mutated)
		// A miss and a tail that is not a whole number of windows.
		reads = append(reads, genome.Random(5*w+w/2, src))
		reads = append(reads, refs[2].Slice(37, 37+3*w+w/3))
		for ri, read := range reads {
			want, wantStats, wantErr := seedLong(lib, read, 0.3)
			got, gotStats, gotErr := SearchLong(lib, read, 0.3)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("approx=%v read %d: err %v vs sequential %v", approx, ri, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("approx=%v read %d: blocked Long Search diverges:\n got %+v\nwant %+v",
					approx, ri, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("approx=%v read %d: stats %+v != sequential %+v", approx, ri, gotStats, wantStats)
			}
		}
		// Invalid input: identical error text, no partial work reported.
		short := genome.Random(w-1, src)
		_, _, wantErr := seedLong(lib, short, 0.3)
		_, gotStats, gotErr := SearchLong(lib, short, 0.3)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("short read error %q, want %q", gotErr, wantErr)
		}
		if gotStats != (Stats{}) {
			t.Fatalf("short read reported work: %+v", gotStats)
		}
	}
}

// TestLookupLongBlockedUnfrozen: the blocked path must reject an
// unfrozen library with the same error the sequential path surfaced
// from its first Lookup.
func TestLookupLongBlockedUnfrozen(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 3010})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(3011))}); err != nil {
		t.Fatal(err)
	}
	// Not frozen.
	_, _, err := SearchLong(lib, genome.Random(64, rng.New(3012)), 0.5)
	if err == nil || err.Error() != "core: Lookup before Freeze" {
		t.Fatalf("unfrozen Long Search error = %v", err)
	}
}

// TestLookupBatchBlockedMultiAlignment pins the wave-blocked batch path
// against sequential Lookup on a stride > 1 library, where patterns
// offer different alignment counts (so waves shrink as short patterns
// exhaust their alignments) and invalid patterns ride along mid-block.
func TestLookupBatchBlockedMultiAlignment(t *testing.T) {
	src := rng.New(3100)
	ref := genome.Random(4000, src)
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Stride: 3, Capacity: 16, Seed: 3101})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	var patterns []*genome.Sequence
	for i := 0; i < 21; i++ {
		switch i % 7 {
		case 3:
			patterns = append(patterns, nil) // invalid mid-block
		case 5:
			patterns = append(patterns, genome.Random(10, src)) // too short
		default:
			off := src.Intn(ref.Len() - 40)
			// Lengths 32..38 → 1..min(3, len-31) alignments.
			patterns = append(patterns, ref.Slice(off, off+32+i%7))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs) // the pool sizes itself from GOMAXPROCS
		results, agg, err := SearchBatch(context.Background(), lib, patterns)
		if err != nil {
			t.Fatal(err)
		}
		var wantAgg Stats
		for i, p := range patterns {
			want, st, wantErr := lib.Lookup(p)
			wantAgg.Add(st)
			r := results[i]
			if (wantErr == nil) != (r.Err == nil) {
				t.Fatalf("GOMAXPROCS=%d pattern %d: err %v vs sequential %v", procs, i, r.Err, wantErr)
			}
			if wantErr != nil {
				if r.Err.Error() != wantErr.Error() {
					t.Fatalf("GOMAXPROCS=%d pattern %d: err %q vs sequential %q", procs, i, r.Err, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(r.Matches, want) {
				t.Fatalf("GOMAXPROCS=%d pattern %d: matches diverge:\n got %+v\nwant %+v",
					procs, i, r.Matches, want)
			}
			if r.Stats != st {
				t.Fatalf("GOMAXPROCS=%d pattern %d: stats %+v != sequential %+v", procs, i, r.Stats, st)
			}
		}
		if agg != wantAgg {
			t.Fatalf("GOMAXPROCS=%d: aggregate %+v != sequential %+v", procs, agg, wantAgg)
		}
	}
}

// TestLookupLongAllocs gates the blocked long-read path's steady-state
// allocations through Search with a reused Answer: with the block
// scratch plane warm, a read that matches nothing must not allocate at
// all.
func TestLookupLongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool allocation counts")
	}
	lib, refs := buildProbeLib(t, false, 3200)
	w := lib.Params().Window
	miss := genome.Random((probeBlock+2)*w, rng.New(3201))
	hit := refs[0].Slice(0, (probeBlock+2)*w)
	ctx := context.Background()
	q := Query{Patterns: []*genome.Sequence{miss}, Long: true, MinFrac: 0.5}
	var a Answer
	search := func(read *genome.Sequence) {
		q.Patterns[0] = read
		if err := lib.Search(ctx, q, &a); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch pool (and confirm both paths work).
	search(miss)
	if search(hit); len(a.Ranked) == 0 {
		t.Fatal("warmup hit ranked no reference")
	}
	if avg := testing.AllocsPerRun(50, func() { search(miss) }); avg > 0 {
		t.Errorf("miss Long Search allocates %.1f times per op, want 0", avg)
	}
	// A hit pays for the per-window vote map entries; budget a small
	// constant so per-block or per-bucket regressions trip the gate.
	if avg := testing.AllocsPerRun(50, func() { search(hit) }); avg > 8 {
		t.Errorf("hit Long Search allocates %.1f times per op, want ≤ 8", avg)
	}
	// Classify, the benchmark harness's entry point over the same
	// routine, allocates what it did as its own method: the wrapped
	// ErrNoSupport on a miss, the ranked list on a hit.
	if avg := testing.AllocsPerRun(50, func() { _, _, _ = lib.Classify(miss, 0.5) }); avg > 3 {
		t.Errorf("miss Classify allocates %.1f times per op, want ≤ 3", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { _, _, _ = lib.Classify(hit, 0.5) }); avg > 1 {
		t.Errorf("hit Classify allocates %.1f times per op, want ≤ 1", avg)
	}
}

// TestRankVotesDeterministic pins rankVotes' order against map
// iteration: references tie on votes (ordered by Ref) and each
// reference's winning vote count is held by several diagonals (the
// smallest diff is its Offset). Go randomizes every map range, so an
// unsorted result or a first-seen tie-break shows up as a differing
// answer across calls.
func TestRankVotesDeterministic(t *testing.T) {
	const nWindows = 10
	votes := map[diagKey]int{}
	var want []RefMatch
	for ref := 11; ref >= 0; ref-- {
		top := 3 + ref%3 // four references at each of 3, 4 and 5 votes
		for _, diff := range []int{40, -7, 12, 90} {
			votes[diagKey{ref: ref, diff: diff + ref}] = top
		}
		votes[diagKey{ref: ref, diff: -100}] = top - 1 // a losing diagonal
		want = append(want, RefMatch{
			Ref: ref, Votes: top, Windows: nWindows, Offset: -7 + ref,
			Fraction: float64(top) / nWindows,
		})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Votes != want[j].Votes {
			return want[i].Votes > want[j].Votes
		}
		return want[i].Ref < want[j].Ref
	})
	// An odd call appends behind a ranking already in dst (a both-strand
	// Long Search ranks its second orientation so): the prefix stays.
	prefix := RefMatch{Ref: 99, Votes: 1}
	for call := 0; call < 200; call++ {
		var dst []RefMatch
		if call%2 == 1 {
			dst = []RefMatch{prefix}
		}
		got := rankVotes(votes, map[int]diagKey{}, nWindows, 0.2, dst)
		if len(dst) > 0 {
			if got[0] != prefix {
				t.Fatalf("call %d: rankVotes overwrote dst's %+v with %+v", call, prefix, got[0])
			}
			got = got[1:]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: rankVotes =\n%+v\nwant\n%+v", call, got, want)
		}
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

func TestLookupBatchMatchesSequential(t *testing.T) {
	lib, ref := buildExactLib(t, 3000, 61)
	src := rng.New(62)
	patterns := make([]*genome.Sequence, 20)
	for i := range patterns {
		if i%2 == 0 {
			off := src.Intn(ref.Len() - 32)
			patterns[i] = ref.Slice(off, off+32)
		} else {
			patterns[i] = genome.Random(32, src)
		}
	}
	results, agg, err := SearchBatch(context.Background(), lib, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(patterns) {
		t.Fatalf("%d results", len(results))
	}
	var wantAgg Stats
	for i, p := range patterns {
		want, st, err := lib.Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		wantAgg.Add(st)
		if results[i].Err != nil {
			t.Fatalf("query %d errored: %v", i, results[i].Err)
		}
		if len(results[i].Matches) != len(want) {
			t.Fatalf("query %d: %d matches vs %d sequential", i, len(results[i].Matches), len(want))
		}
		for j := range want {
			if results[i].Matches[j] != want[j] {
				t.Fatalf("query %d match %d differs", i, j)
			}
		}
	}
	if agg != wantAgg {
		t.Fatalf("aggregate stats %+v != %+v", agg, wantAgg)
	}
}

// TestLookupBatchWorkerCounts runs one batch at several GOMAXPROCS
// settings; a batch runs its blocks on the caller's goroutine, so every
// setting must answer as sequential Lookup does.
func TestLookupBatchWorkerCounts(t *testing.T) {
	lib, ref := buildExactLib(t, 1000, 63)
	patterns := make([]*genome.Sequence, 20)
	for i := range patterns {
		patterns[i] = ref.Slice(i*40, i*40+32)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 16} {
		runtime.GOMAXPROCS(procs)
		results, _, err := SearchBatch(context.Background(), lib, patterns)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(results) != len(patterns) {
			t.Fatalf("GOMAXPROCS=%d: %d results", procs, len(results))
		}
		for i, p := range patterns {
			want, _, err := lib.Lookup(p)
			if err != nil || results[i].Err != nil {
				t.Fatalf("GOMAXPROCS=%d pattern %d: %v, %v", procs, i, err, results[i].Err)
			}
			if !reflect.DeepEqual(results[i].Matches, want) {
				t.Fatalf("GOMAXPROCS=%d pattern %d: %v, sequential %v", procs, i, results[i].Matches, want)
			}
		}
	}
}

func TestLookupBatchPropagatesQueryErrors(t *testing.T) {
	lib, ref := buildExactLib(t, 1000, 64)
	results, _, err := SearchBatch(context.Background(), lib, []*genome.Sequence{
		ref.Slice(0, 32),
		genome.Random(5, rng.New(65)), // too short
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal("valid query errored")
	}
	if results[1].Err == nil {
		t.Fatal("short query did not error")
	}
}

func TestLookupBatchContextPreCanceled(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 71)
	patterns := []*genome.Sequence{ref.Slice(0, 32), ref.Slice(40, 72)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := lib.Counters()
	results, agg, err := SearchBatch(ctx, lib, patterns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(patterns) {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if agg != (Stats{}) {
		t.Fatalf("canceled batch reported work: %+v", agg)
	}
	after := lib.Counters()
	if after.BucketProbes != before.BucketProbes {
		t.Fatalf("probe counter advanced on a pre-canceled batch: %d → %d",
			before.BucketProbes, after.BucketProbes)
	}
	if after.BatchCancellations != before.BatchCancellations+1 {
		t.Fatalf("cancellation counter %d → %d, want +1",
			before.BatchCancellations, after.BatchCancellations)
	}
}

// cancelInProbe wraps lib's kernel probe so that cancel runs, once,
// inside the first probe of a block that when(wins) selects.
func cancelInProbe(lib *Library, cancel func(), when func(wins []Window) bool) {
	probe := lib.k.Probe
	var once sync.Once
	lib.k.Probe = func(v *View, wins []Window, out []*BatchResult) {
		if when(wins) {
			once.Do(cancel)
		}
		probe(v, wins, out)
	}
}

func TestLookupBatchContextCancelMidBatch(t *testing.T) {
	src := rng.New(72)
	ref := genome.Random(3000, src)
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Capacity: 4, Seed: 73})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	const n = 1024
	patterns := make([]*genome.Sequence, n)
	for i := range patterns {
		off := (i * 37) % (ref.Len() - 32)
		patterns[i] = ref.Slice(off, off+32)
	}
	// Measure what the full batch costs, then rerun it with a context
	// canceled inside the first probe: the first block finishes, every
	// later block is refused.
	_, fullAgg, err := SearchBatch(context.Background(), lib, patterns)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelInProbe(lib, cancel, func([]Window) bool { return true })
	before := lib.Counters()
	results, agg, err := SearchBatch(ctx, lib, patterns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := lib.Counters().BatchCancellations - before.BatchCancellations; got != 1 {
		t.Errorf("batch cancellations counted %d, want 1", got)
	}
	delta := lib.Counters().BucketProbes - before.BucketProbes
	if delta >= int64(fullAgg.BucketProbes) {
		t.Fatalf("canceled batch probed as much as a full batch (%d probes)", delta)
	}
	done := 0
	var wantAgg Stats
	for i, r := range results {
		switch {
		case r.Err == nil:
			done++
			wantAgg.Add(r.Stats)
		case errors.Is(r.Err, context.Canceled):
		default:
			t.Fatalf("result %d: unexpected error %v", i, r.Err)
		}
	}
	if done == 0 {
		t.Fatal("no pattern completed before the cancel")
	}
	if countCanceled(results) == 0 {
		t.Fatal("no pattern was canceled")
	}
	if agg != wantAgg {
		t.Fatalf("aggregate %+v != sum of completed results %+v", agg, wantAgg)
	}
}

// TestLookupBatchCancelAfterLastClaim: a context that dies while the
// last block runs refuses nothing, so the batch is complete — no error,
// no canceled entry, no counted cancellation.
func TestLookupBatchCancelAfterLastClaim(t *testing.T) {
	lib, ref := buildExactLib(t, 3000, 74)
	const n = 5*BlockWidth + 3
	patterns := make([]*genome.Sequence, n)
	for i := range patterns {
		off := (i * 53) % (ref.Len() - 32)
		patterns[i] = ref.Slice(off, off+32)
	}
	want, _, err := SearchBatch(context.Background(), lib, patterns)
	if err != nil {
		t.Fatal(err)
	}
	// Each block is one probe of its patterns. The last block's probe
	// waits until every block has been probed — past its context check —
	// and then cancels.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probed atomic.Int64
	last := patterns[n-1]
	cancelInProbe(lib, cancel, func(wins []Window) bool {
		probed.Add(int64(len(wins)))
		if !slices.ContainsFunc(wins, func(w Window) bool { return w.Seq == last }) {
			return false
		}
		for probed.Load() < n {
			runtime.Gosched()
		}
		return true
	})
	before := lib.Counters().BatchCancellations
	results, _, err := SearchBatch(ctx, lib, patterns)
	if ctx.Err() == nil {
		t.Fatal("the last block's probe did not cancel")
	}
	if err != nil {
		t.Errorf("err = %v, want nil: every block ran", err)
	}
	if c := countCanceled(results); c != 0 {
		t.Errorf("%d canceled entries, want 0", c)
	}
	if got := lib.Counters().BatchCancellations - before; got != 0 {
		t.Errorf("batch cancellations counted %d, want 0", got)
	}
	if !reflect.DeepEqual(results, want) {
		t.Error("results differ from an uncanceled batch")
	}
}

func countCanceled(results []BatchResult) int {
	n := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			n++
		}
	}
	return n
}

func TestLookupBatchRequiresFreeze(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 66})
	if _, _, err := SearchBatch(context.Background(), lib, []*genome.Sequence{genome.Random(16, rng.New(66))}); err == nil {
		t.Fatal("unfrozen batch accepted")
	}
}

func TestLookupBothStrands(t *testing.T) {
	src := rng.New(67)
	motif := genome.Random(32, src)
	ref := genome.Random(400, src).
		Append(motif).
		Append(genome.Random(400, src)).
		Append(motif.ReverseComplement()).
		Append(genome.Random(400, src))
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 68})
	if err := lib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	var a Answer
	if err := lib.Search(context.Background(), Query{Patterns: []*genome.Sequence{motif}, Both: true}, &a); err != nil {
		t.Fatal(err)
	}
	var fwd, rev bool
	for strand, r := range a.Results {
		for _, m := range r.Matches {
			if m.Off == 400 && Strand(strand) == Forward {
				fwd = true
			}
			if m.Off == 832 && Strand(strand) == Reverse {
				rev = true
			}
		}
	}
	if !fwd || !rev {
		t.Fatalf("strand matches missing (fwd=%v rev=%v): %+v", fwd, rev, a.Results)
	}
}

func TestStrandString(t *testing.T) {
	if Forward.String() != "+" || Reverse.String() != "-" {
		t.Fatal("strand names wrong")
	}
}

func TestRemoveOnSealedLibrary(t *testing.T) {
	// Buckets keep no counters and cannot subtract; the tombstone path
	// makes Remove work anyway: the windows stay
	// superposed (noise) but can never verify, so the reference is gone
	// from every result.
	src := rng.New(71)
	refs := []*genome.Sequence{genome.Random(500, src), genome.Random(500, src)}
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 71})
	for i, r := range refs {
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	windowsBefore := lib.NumWindows()
	if err := lib.Remove(0); err != nil {
		t.Fatalf("sealed removal rejected: %v", err)
	}
	if lib.NumWindows() >= windowsBefore {
		t.Fatal("live window count did not drop")
	}
	if lib.TombstoneRatio() <= 0 {
		t.Fatal("tombstone ratio not tracked")
	}
	if matches, _, _ := lib.Lookup(refs[0].Slice(100, 132)); len(matches) != 0 {
		t.Fatalf("removed reference still matches: %+v", matches)
	}
	if m, _, _ := lib.Lookup(refs[1].Slice(100, 132)); len(m) == 0 {
		t.Fatal("surviving reference lost")
	}
	if lib.Ref(0).Seq != nil {
		t.Fatal("tombstone retains sequence")
	}
	if err := lib.Remove(0); err == nil {
		t.Fatal("double removal accepted")
	}
	// Compaction rewrites the tombstoned segment and clears the ratio.
	n, err := lib.Compact(0)
	if err != nil || n == 0 {
		t.Fatalf("Compact = (%d, %v), want rewrites", n, err)
	}
	if lib.TombstoneRatio() != 0 {
		t.Fatalf("tombstone ratio %v after Compact", lib.TombstoneRatio())
	}
	if got := lib.Counters().Compactions; got != int64(n) {
		t.Fatalf("Compactions counter %d, want %d", got, n)
	}
	if m, _, _ := lib.Lookup(refs[1].Slice(100, 132)); len(m) == 0 {
		t.Fatal("surviving reference lost after Compact")
	}
}

func TestRemoveValidation(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 72})
	if err := lib.Remove(0); err == nil {
		t.Fatal("unfrozen removal accepted")
	}
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(73))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	if err := lib.Remove(5); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
}

func TestRemoveThenCompactIsClean(t *testing.T) {
	// After removing ref 0 and compacting, the library must behave
	// exactly like one built from ref 1 alone: compaction re-encodes the
	// live windows, so ref 0's superposition contribution is fully gone.
	src := rng.New(74)
	r0, r1 := genome.Random(300, src), genome.Random(300, src)
	// At a capacity that stays separable, the bucket r0's 269 windows end
	// in also takes r1's first three, so r0 lingers there until compaction.
	both := mustLibrary(t, Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 75})
	if err := both.Add(genome.Record{ID: "r0", Seq: r0}); err != nil {
		t.Fatal(err)
	}
	if err := both.Add(genome.Record{ID: "r1", Seq: r1}); err != nil {
		t.Fatal(err)
	}
	both.Freeze()
	if err := both.Remove(0); err != nil {
		t.Fatal(err)
	}
	// Pre-compaction, the tombstoned windows are noise but r1 must still
	// verify (the decision threshold accounts for full occupancy).
	q := r1.Slice(50, 82)
	if _, err := both.Compact(0); err != nil {
		t.Fatal(err)
	}
	// Every bucket now bundles r1's windows alone.
	m, _, err := both.Lookup(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, match := range m {
		if match.Ref == 1 && match.Off == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("r1 window lost after remove+compact: %+v", m)
	}
	// The compacted library scores r1's windows exactly like a fresh
	// library built from r1 alone with the same seed: same buckets, same
	// rows. Compare probe scores for the same query.
	solo := mustLibrary(t, Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 75})
	if err := solo.Add(genome.Record{ID: "r1", Seq: r1}); err != nil {
		t.Fatal(err)
	}
	solo.Freeze()
	hv := both.Encoder().EncodeWindowExact(q, 0)
	cb, err := both.Probe(hv, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := solo.Probe(hv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb) != 1 || len(cs) != 1 || cb[0].Score != cs[0].Score {
		t.Fatalf("compacted scores diverge from fresh build: %+v vs %+v", cb, cs)
	}
}

func TestClassifyBothStrands(t *testing.T) {
	src := rng.New(76)
	refs := []*genome.Sequence{genome.Random(2000, src), genome.Random(2000, src)}
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 77})
	for i, r := range refs {
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	classify := func(read *genome.Sequence) (RefMatch, Strand, error) {
		var a Answer
		err := lib.Search(context.Background(), Query{Patterns: []*genome.Sequence{read}, Both: true, Long: true, MinFrac: 0.5}, &a)
		if err != nil {
			return RefMatch{}, a.Strand, err
		}
		best, err := a.Best()
		return best, a.Strand, err
	}
	// A forward read from ref 1.
	fwd := refs[1].Slice(500, 820)
	best, strand, err := classify(fwd)
	if err != nil || best.Ref != 1 || strand != Forward {
		t.Fatalf("forward read: ref=%d strand=%v err=%v", best.Ref, strand, err)
	}
	// The same read delivered reverse-complemented.
	rc := fwd.ReverseComplement()
	best, strand, err = classify(rc)
	if err != nil || best.Ref != 1 || strand != Reverse {
		t.Fatalf("reverse read: ref=%d strand=%v err=%v", best.Ref, strand, err)
	}
	if best.Offset != 500 {
		t.Fatalf("reverse read offset %d, want 500", best.Offset)
	}
	// Unrelated read fails on both strands.
	if _, _, err := classify(genome.Random(320, src)); err == nil {
		t.Fatal("unrelated read classified")
	}
}

package cobs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// testParams keeps signatures small enough that unit tests stay fast
// while leaving the false-positive rate low for a handful of refs.
var testParams = Params{Window: 16, RowBits: 4096, Hashes: 4}

func mustIndex(t *testing.T, p Params) *Index {
	t.Helper()
	x, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// buildIndex builds a frozen index over the given references.
func buildIndex(t *testing.T, refs ...*genome.Sequence) *Index {
	t.Helper()
	x := mustIndex(t, testParams)
	for i, seq := range refs {
		if err := x.Add(genome.Record{ID: refID(i), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	x.Freeze()
	return x
}

func refID(i int) string {
	return string([]byte{'r', byte('0' + i)})
}

// naiveScan is the ground truth: every exact occurrence of the
// pattern's leading window across every live reference, in (Ref, Off)
// order.
func naiveScan(refs []*genome.Sequence, pattern *genome.Sequence, w int) []core.Match {
	var out []core.Match
	win := pattern.Slice(0, w)
	for r, seq := range refs {
		if seq == nil {
			continue
		}
		for off := 0; ; off++ {
			off = seq.Index(win, off)
			if off < 0 {
				break
			}
			out = append(out, core.Match{Ref: r, Off: off, QueryOff: 0, Distance: 0})
		}
	}
	return out
}

func sameMatches(a, b []core.Match) bool {
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

func TestLookupMatchesNaiveScan(t *testing.T) {
	w := testParams.Window
	refs := []*genome.Sequence{
		genome.Random(3000, rng.New(1)),
		genome.Random(500, rng.New(2)),
		genome.Random(1200, rng.New(3)),
	}
	x := buildIndex(t, refs...)
	// Present windows from every reference, plus random absent queries.
	var queries []*genome.Sequence
	for _, seq := range refs {
		for _, off := range []int{0, 1, seq.Len() / 2, seq.Len() - w} {
			queries = append(queries, seq.Slice(off, off+w))
		}
	}
	for i := 0; i < 50; i++ {
		queries = append(queries, genome.Random(w, rng.New(uint64(100+i))))
	}
	for qi, q := range queries {
		got, _, err := x.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveScan(refs, q, w)
		if !sameMatches(got, want) {
			t.Fatalf("query %d: got %v want %v", qi, got, want)
		}
	}
}

func TestLookupRejectsShortAndUnfrozen(t *testing.T) {
	x := mustIndex(t, testParams)
	if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(1))}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.Lookup(genome.Random(32, rng.New(2))); err == nil {
		t.Fatal("Lookup before Freeze succeeded")
	}
	x.Freeze()
	if _, _, err := x.Lookup(genome.Random(testParams.Window-1, rng.New(3))); err == nil || !strings.Contains(err.Error(), "shorter than window") {
		t.Fatalf("short pattern: got %v", err)
	}
	if _, _, err := x.Lookup(nil); err == nil || !strings.Contains(err.Error(), "shorter than window") {
		t.Fatalf("nil pattern: got %v", err)
	}
	if err := x.Add(genome.Record{ID: "short", Seq: genome.Random(testParams.Window-1, rng.New(6))}); err == nil {
		t.Fatal("reference shorter than a window accepted")
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	// The engine's contract: a closed heap index stops accepting
	// mutations, reads keep working (only a mapped index unmaps).
	if _, _, err := x.Lookup(genome.Random(32, rng.New(4))); err != nil {
		t.Fatalf("closed heap Lookup: got %v", err)
	}
	if err := x.Add(genome.Record{ID: "x", Seq: genome.Random(50, rng.New(5))}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("closed Add: got %v", err)
	}
}

func TestLookupBothStrands(t *testing.T) {
	w := testParams.Window
	ref := genome.Random(2000, rng.New(7))
	x := buildIndex(t, ref)
	pat := ref.Slice(400, 400+w).ReverseComplement()
	var a core.Answer
	if err := x.Search(context.Background(), core.Query{Patterns: []*genome.Sequence{pat}, Both: true}, &a); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range a.Results[core.Reverse].Matches {
		if m.Off == 400 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reverse-strand occurrence at 400 missed: %v", a.Results)
	}
}

func TestLookupLongAndClassify(t *testing.T) {
	refs := []*genome.Sequence{
		genome.Random(4000, rng.New(11)),
		genome.Random(4000, rng.New(12)),
	}
	x := buildIndex(t, refs...)
	query := refs[1].Slice(1000, 1000+200)
	long := core.Query{Patterns: []*genome.Sequence{query}, Long: true, MinFrac: 0.5}
	var a core.Answer
	if err := x.Search(context.Background(), long, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Ranked) == 0 || a.Ranked[0].Ref != 1 {
		t.Fatalf("Long Search ranked %v, want ref 1 first", a.Ranked)
	}
	best, _, err := x.Classify(query, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if best.Ref != 1 {
		t.Fatalf("Classify picked ref %d", best.Ref)
	}
	// A foreign read must yield ErrNoSupport.
	if _, _, err := x.Classify(genome.Random(200, rng.New(99)), 0.5); !errors.Is(err, core.ErrNoSupport) {
		t.Fatalf("foreign read: got %v", err)
	}
	// Both strands: the reverse-complemented read classifies to the
	// same reference on the reverse strand.
	long.Patterns[0], long.Both = query.ReverseComplement(), true
	if err := x.Search(context.Background(), long, &a); err != nil {
		t.Fatal(err)
	}
	got, err := a.Best()
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref != 1 || a.Strand != core.Reverse {
		t.Fatalf("both-strand Long Search: ref %d strand %v", got.Ref, a.Strand)
	}
}

func TestRemoveTombstonesAndCompactReclaims(t *testing.T) {
	w := testParams.Window
	refs := []*genome.Sequence{
		genome.Random(1000, rng.New(21)),
		genome.Random(1000, rng.New(22)),
	}
	// Seal the columns into an immutable segment: removal from sealed
	// storage is the tombstone path (a removal from the active builder
	// just splices the column out).
	x := mustIndex(t, testParams)
	x.SetSealThreshold(2)
	for i, seq := range refs {
		if err := x.Add(genome.Record{ID: refID(i), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	x.Freeze()
	pat := refs[0].Slice(100, 100+w)
	if ms, _, _ := x.Lookup(pat); len(ms) == 0 {
		t.Fatal("pattern not found before Remove")
	}
	if err := x.Remove(0); err != nil {
		t.Fatal(err)
	}
	if ms, _, _ := x.Lookup(pat); !sameMatches(ms, naiveScan([]*genome.Sequence{nil, refs[1]}, pat, w)) {
		t.Fatalf("removed reference still matching: %v", ms)
	}
	if x.TombstoneRatio() <= 0 {
		t.Fatal("TombstoneRatio stayed zero after Remove")
	}
	if x.Ref(0).Seq != nil {
		t.Fatal("removed reference kept its sequence")
	}
	if err := x.Remove(0); err == nil {
		t.Fatal("double Remove succeeded")
	}
	if err := x.Remove(5); err == nil {
		t.Fatal("out-of-range Remove succeeded")
	}
	n, err := x.Compact(0)
	if err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	if x.TombstoneRatio() != 0 {
		t.Fatalf("TombstoneRatio %v after Compact", x.TombstoneRatio())
	}
	// The tombstoned column is physically gone from the rewritten
	// segment (arena width shrinks only at 64-column boundaries, so the
	// observable reclaim here is the column count).
	if x.Describe().Buckets != 1 {
		t.Fatalf("NumBuckets = %d after Compact, want 1", x.Describe().Buckets)
	}
	if x.Counters().Compactions != 1 {
		t.Fatalf("compactions counter = %d", x.Counters().Compactions)
	}
	// Surviving reference still answers correctly.
	p2 := refs[1].Slice(50, 50+w)
	if ms, _, _ := x.Lookup(p2); len(ms) == 0 {
		t.Fatal("survivor lost after Compact")
	}
}

func TestAutoCompactOnRemove(t *testing.T) {
	x := mustIndex(t, testParams)
	x.SetSealThreshold(2)
	for i, seq := range []*genome.Sequence{genome.Random(800, rng.New(31)), genome.Random(800, rng.New(32))} {
		if err := x.Add(genome.Record{ID: refID(i), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	x.Freeze()
	x.SetAutoCompact(0.01)
	if err := x.Remove(1); err != nil {
		t.Fatal(err)
	}
	if got := x.Counters().Compactions; got < 1 {
		t.Fatalf("auto-compact did not run (compactions=%d)", got)
	}
	if x.TombstoneRatio() != 0 {
		t.Fatalf("tombstones survived auto-compact: %v", x.TombstoneRatio())
	}
}

func TestLookupBatchContext(t *testing.T) {
	w := testParams.Window
	ref := genome.Random(2000, rng.New(51))
	x := buildIndex(t, ref)
	var pats []*genome.Sequence
	for i := 0; i < 40; i++ {
		off := (i * 47) % (ref.Len() - w)
		pats = append(pats, ref.Slice(off, off+w))
	}
	var a core.Answer
	if err := x.Search(context.Background(), core.Query{Patterns: pats}, &a); err != nil {
		t.Fatal(err)
	}
	for i, r := range a.Results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want, _, _ := x.Lookup(pats[i])
		if !sameMatches(r.Matches, want) {
			t.Fatalf("batch result %d diverges from Lookup", i)
		}
	}
	// A canceled context marks unserved patterns, returns ctx's error,
	// and bumps the counter.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := x.Search(ctx, core.Query{Patterns: pats}, &a); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	for i, r := range a.Results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d not marked canceled: %v", i, r.Err)
		}
	}
	if x.Counters().BatchCancellations < 1 {
		t.Fatal("batch cancellation not counted")
	}
}

func TestLookupBlock(t *testing.T) {
	w := testParams.Window
	ref := genome.Random(1500, rng.New(61))
	x := buildIndex(t, ref)
	pats := []*genome.Sequence{
		ref.Slice(0, w),
		genome.Random(w, rng.New(62)),
		genome.Random(w-1, rng.New(63)), // short: per-slot error
	}
	results := make([]core.BatchResult, len(pats))
	if err := x.LookupBlock(pats, results); err != nil {
		t.Fatal(err)
	}
	if want, _, _ := x.Lookup(pats[0]); !sameMatches(results[0].Matches, want) {
		t.Fatal("block slot 0 diverges from Lookup")
	}
	if results[2].Err == nil {
		t.Fatal("short pattern in block not flagged")
	}
	if err := x.LookupBlock(nil, nil); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if err := x.LookupBlock(pats, make([]core.BatchResult, 1)); err == nil {
		t.Fatal("short results slice accepted")
	}
	// One block; the short pattern offers no window to probe.
	if x.Counters().BlockedProbes != 1 || x.Counters().BlockedWindows != int64(len(pats)-1) {
		t.Fatalf("blocked counters: %+v", x.Counters())
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Window: -1},
		{Window: 2000},
		{RowBits: 100}, // not a multiple of 64
		{RowBits: -64}, //
		{Hashes: 17},   // over the probe cap
		{Hashes: -1},   //
	}
	for _, p := range bad {
		if _, err := New(p); !errors.Is(err, ErrSizing) {
			t.Fatalf("New(%+v) = %v, want ErrSizing", p, err)
		}
	}
	x := mustIndex(t, Params{})
	p := x.params
	if p.Window != 32 || p.RowBits != 1<<16 || p.Hashes != 4 {
		t.Fatalf("defaults: %+v", p)
	}
}

func TestDescribeAndIndexContract(t *testing.T) {
	x := buildIndex(t, genome.Random(500, rng.New(71)))
	info := x.Describe()
	if info.Backend != BackendName || info.Window != testParams.Window || info.Stride != 1 {
		t.Fatalf("Describe: %+v", info)
	}
	if info.Approx {
		t.Fatal("cobs search is exact; Approx must be false")
	}
	if info.Threshold != 1.0 {
		t.Fatalf("Threshold = %v", info.Threshold)
	}
	if info.Mapped || info.MappedBytes != 0 {
		t.Fatal("heap backend reports mapped storage")
	}
	if info.ResidentBytes != info.MemoryBytes {
		t.Fatal("ResidentBytes != MemoryBytes")
	}
	var idx core.Index = x
	if idx.Describe().Backend != BackendName {
		t.Fatal("interface dispatch broken")
	}
}

// TestProbeZeroAlloc pins the hot candidate stage at zero allocations
// per probed window once the pooled scratch is warm — the property the
// biohdlint hotpath analyzer proves statically.
func TestProbeZeroAlloc(t *testing.T) {
	w := testParams.Window
	ref := genome.Random(3000, rng.New(81))
	x := buildIndex(t, ref)
	sn, err := x.Pin("probe")
	if err != nil {
		t.Fatal(err)
	}
	defer x.Unpin()
	pat := ref.Slice(700, 700+w)
	sc := x.getScratch(sn)
	defer x.putScratch(sc)
	var stats core.Stats
	dst := make([]core.Match, 0, 64)
	// Warm: grow sc.cands and dst to steady state.
	x.probeWindow(sn, pat, 0, sc, &stats)
	dst = x.verifyWindow(sn, dst[:0], pat, 0, sc.cands, &stats)
	if avg := testing.AllocsPerRun(100, func() {
		var st core.Stats
		x.probeWindow(sn, pat, 0, sc, &st)
		dst = x.verifyWindow(sn, dst[:0], pat, 0, sc.cands, &st)
	}); avg > 0 {
		t.Fatalf("probe+verify allocates %.1f/op", avg)
	}
}

// TestSignatureMatchesBaselineBloom holds the kernel's signature
// builder to the reference Bloom filter it shares a hashing scheme
// with: the column sealed for a reference is bit for bit the filter
// KmerBloom (bloom_test.go) builds over the same w-mers.
func TestSignatureMatchesBaselineBloom(t *testing.T) {
	ref := genome.Random(700, rng.New(301))
	x := buildIndex(t, ref)
	bloom, err := NewKmerBloomFixed(testParams.Window, testParams.RowBits, testParams.Hashes)
	if err != nil {
		t.Fatal(err)
	}
	bloom.AddSequence(ref)
	v, err := x.Pin("signature")
	if err != nil {
		t.Fatal(err)
	}
	defer x.Unpin()
	got := viewOf(v).segs[0].signature(0, testParams.RowBits)
	if want := bloom.SignatureWords(); len(got) != len(want) {
		t.Fatalf("signature is %d words, filter %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("signature word %d = %016x, filter has %016x", i, got[i], want[i])
			}
		}
	}
}

// signature reconstructs column col's Bloom signature from the
// bit-sliced arena (bit b set iff row b has the column's bit): the
// transpose oracle the signature and compaction tests hold segments to.
func (s *segment) signature(col int, rowBits int) []uint64 {
	sig := make([]uint64, rowBits/64)
	word, bit := col/64, uint(col%64)
	for b := 0; b < rowBits; b++ {
		if s.arena[b*s.colWords+word]&(1<<bit) != 0 {
			sig[b/64] |= 1 << uint(b%64)
		}
	}
	return sig
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/stats"
)

// servedParams is the exact geometry the scan_exact_wire benchmark
// serves: D = 8192, W = 32, C = 16, so 32 routing groups.
var servedParams = Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 6101}

// randomRefs returns n random references of length refLen.
func randomRefs(n, refLen int, seed uint64) []genome.Record {
	src := rng.New(seed)
	recs := make([]genome.Record, n)
	for i := range recs {
		recs[i] = genome.Record{ID: fmt.Sprintf("ref-%d", i), Seq: genome.Random(refLen, src)}
	}
	return recs
}

// routedLibrary builds p over recs, adding the first frozen of them
// before Freeze and the rest after it, one at a time, with seal
// threshold seal (0: the default).
func routedLibrary(t testing.TB, p Params, recs []genome.Record, frozen, seal int) *Library {
	t.Helper()
	lib, err := NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == frozen {
			lib.Freeze()
			lib.SetSealThreshold(seal)
		}
		if err := lib.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if frozen >= len(recs) {
		lib.Freeze()
	}
	return lib
}

// missLimit is the smallest miss count a Binomial(occurrences, β)
// reaches with probability at most 1e-9, the limit
// TestExactMissRateWithinBeta holds exact search to.
func missLimit(occurrences int, beta float64) int {
	limit := 0
	for stats.BinomialTail(occurrences, beta, limit) > 1e-9 {
		limit++
	}
	return limit
}

// checkRoutedSearch searches every every-th window of each live
// reference of lib in one Search and holds the answers to genome.FindAll
// over the live references: every match must be an occurrence, and the
// occurrences missed must stay under the β limit. It returns the mean
// buckets a lookup scored.
func checkRoutedSearch(t *testing.T, lib *Library, every int) float64 {
	t.Helper()
	w := lib.Params().Window
	var pats []*genome.Sequence
	for r := 0; r < lib.NumRefs(); r++ {
		seq := lib.Ref(r).Seq
		if seq == nil {
			continue
		}
		for off := r % every; off+w <= seq.Len(); off += every {
			pats = append(pats, seq.Slice(off, off+w))
		}
	}
	var a Answer
	if err := lib.Search(context.Background(), Query{Patterns: pats}, &a); err != nil {
		t.Fatal(err)
	}
	occurrences, misses := 0, 0
	var offs []int
	for i, res := range a.Results {
		if res.Err != nil {
			t.Fatalf("pattern %d: %v", i, res.Err)
		}
		found := map[[2]int]bool{}
		for _, m := range res.Matches {
			if lib.Ref(m.Ref).Seq == nil || m.Distance != 0 ||
				lib.Ref(m.Ref).Seq.Slice(m.Off, m.Off+w).String() != pats[i].String() {
				t.Fatalf("pattern %d: match %+v is not an occurrence in a live reference", i, m)
			}
			found[[2]int{m.Ref, m.Off}] = true
		}
		for r := 0; r < lib.NumRefs(); r++ {
			if seq := lib.Ref(r).Seq; seq != nil {
				offs, _ = genome.FindAll(offs[:0], seq, pats[i], 0, w)
				for _, off := range offs {
					occurrences++
					if !found[[2]int{r, off}] {
						misses++
					}
				}
			}
		}
	}
	limit := missLimit(occurrences, lib.Params().Beta)
	t.Logf("%d lookups, %d groups: %d of %d occurrences missed (limit %d), %.1f of %d buckets scored a lookup",
		len(pats), lib.groups, misses, occurrences, limit,
		float64(a.Stats.BucketProbes)/float64(len(pats)), lib.Describe().Buckets)
	if misses >= limit {
		t.Fatalf("routed search missed %d of %d occurrences, at or past the β limit %d", misses, occurrences, limit)
	}
	return float64(a.Stats.BucketProbes) / float64(len(pats))
}

// TestRoutedSearchAtServedShape: random references at the
// scan_exact_wire shape (16 × 8 223 bases, C = 16): Search returns every
// occurrence within β, and a lookup scores at most a sixteenth of the
// buckets — its group and the spill.
func TestRoutedSearchAtServedShape(t *testing.T) {
	n, every := 16, 5
	if raceEnabled {
		n, every = 4, 23
	}
	lib := routedLibrary(t, servedParams, randomRefs(n, 8223, 6102), n, 0)
	if lib.groups != 32 {
		t.Fatalf("D = %d, C = %d routes to %d groups, want 32", servedParams.Dim, servedParams.Capacity, lib.groups)
	}
	buckets := lib.Describe().Buckets
	if want := (n*(8223-31) + 15) / 16; buckets != want {
		t.Fatalf("%d buckets, want ⌈windows/C⌉ = %d", buckets, want)
	}
	if mean := checkRoutedSearch(t, lib, every); mean > float64(buckets)/16 {
		t.Fatalf("a lookup scored %.1f of %d buckets, want at most a sixteenth", mean, buckets)
	}
}

// TestRoutedSearchAcrossSegments routes across several segments and
// through every mutation: sealed segments after Freeze, Remove, Compact,
// and an Add after the compaction. Each state answers every occurrence
// within β, and never a removed reference.
func TestRoutedSearchAcrossSegments(t *testing.T) {
	recs := randomRefs(9, 3000, 6103)
	lib := routedLibrary(t, servedParams, recs[:8], 3, 200)
	if lib.NumSegments() < 3 {
		t.Fatalf("%d segments, want several", lib.NumSegments())
	}
	checkRoutedSearch(t, lib, 3)
	for _, r := range []int{1, 5} {
		if err := lib.Remove(r); err != nil {
			t.Fatal(err)
		}
	}
	checkRoutedSearch(t, lib, 3)
	if n, err := lib.Compact(0); err != nil || n == 0 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	checkRoutedSearch(t, lib, 3)
	if err := lib.Add(recs[8]); err != nil {
		t.Fatal(err)
	}
	checkRoutedSearch(t, lib, 3)
}

// TestRoutedViewLayout holds a routed segment to its layout: ⌈windows/C⌉
// buckets, every full bucket of group g holding C windows that route to
// g, the spill holding the rest in the order they were memorized, and a
// builder where no group filled a bucket laid out as if nothing were
// routed.
func TestRoutedViewLayout(t *testing.T) {
	p := servedParams
	w := p.Window
	lib := routedLibrary(t, p, randomRefs(2, 2500, 6104), 2, 0)
	sn := hdcOf(lib.snap.Load())
	seg := sn.segs[0]
	ends := seg.groups
	if len(ends) != lib.groups || seg.NumBuckets() != (lib.NumWindows()+p.Capacity-1)/p.Capacity {
		t.Fatalf("%d group ends, %d buckets for %d windows", len(ends), seg.NumBuckets(), lib.NumWindows())
	}
	lo := 0
	for g, end := range ends {
		for b := lo; b < int(end); b++ {
			ws := seg.windows(b)
			if len(ws) != p.Capacity {
				t.Fatalf("group %d bucket %d holds %d windows", g, b, len(ws))
			}
			for _, wr := range ws {
				if got := groupOf(windowKey(lib.Ref(int(wr.Ref)).Seq, int(wr.Off), w), lib.groups); got != g {
					t.Fatalf("window %+v of group %d's bucket %d routes to group %d", wr, g, b, got)
				}
			}
		}
		lo = int(end)
	}
	var spilled []WindowRef
	for b := lo; b < seg.NumBuckets(); b++ {
		spilled = append(spilled, seg.windows(b)...)
	}
	if !slices.IsSortedFunc(spilled, func(a, b WindowRef) int {
		return int(a.Ref-b.Ref)<<32 + int(a.Off-b.Off)
	}) {
		t.Fatal("the spill is not in memorization order")
	}

	// 150 windows over 32 groups of 16 fill none: the layout of an
	// unrouted build, window k in bucket k/C.
	small := routedLibrary(t, p, randomRefs(1, 150+w-1, 6105), 1, 0)
	if ends := hdcOf(small.snap.Load()).segs[0].groups; ends[len(ends)-1] != 0 {
		t.Fatalf("a group of the small build filled a bucket: %v", ends)
	}
	for b := 0; b < small.Describe().Buckets; b++ {
		for i, wr := range small.BucketWindows(b) {
			if int(wr.Off) != b*p.Capacity+i {
				t.Fatalf("bucket %d member %d is offset %d, want %d", b, i, wr.Off, b*p.Capacity+i)
			}
		}
	}
}

// TestRoutedReopenStaysRouted saves a routed library and reopens it
// mapped and on the heap, as the benchmark serves it: each reopened
// library scores what the fresh one does per lookup — a sixteenth of the
// buckets at most — and answers the same.
func TestRoutedReopenStaysRouted(t *testing.T) {
	lib := routedLibrary(t, servedParams, randomRefs(4, 8223, 6106), 4, 0)
	path := writeV3File(t, lib)
	buckets := lib.Describe().Buckets
	ref := lib.Ref(2).Seq
	for _, mode := range []LoadMode{MapArena, LoadHeap} {
		got := openLib(t, path, mode)
		if mode == MapArena && MapSupported() && !got.Mapped() {
			t.Fatal("MapArena opened the library on the heap")
		}
		for _, off := range []int{0, 777, 4096, 8191} {
			pat := ref.Slice(off, off+32)
			m1, s1, err := lib.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			m2, s2, err := got.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			if s2.BucketProbes > buckets/16 || s1 != s2 || fmt.Sprint(m1) != fmt.Sprint(m2) {
				t.Fatalf("mode %d offset %d: reopened %v %+v, fresh %v %+v, of %d buckets", mode, off, m2, s2, m1, s1, buckets)
			}
		}
		got.Close()
	}
}

// TestRoutedMembersSurviveReopen saves a routed library of several
// segments and reopens it on both tiers: each segment's members are its
// references in the order they were memorized, one entry each, whatever
// the routing scattered, so removing a reference and compacting gives
// what the same operations give on the fresh build — answers, window
// count and ledger.
func TestRoutedMembersSurviveReopen(t *testing.T) {
	recs := randomRefs(6, 2400, 6107)
	build := func() *Library { return routedLibrary(t, servedParams, recs, 2, 150) }
	fresh := build()
	path := writeV3File(t, fresh)
	ledgers := func(l *Library) []ledger {
		var lgs []ledger
		for _, s := range l.sealedSegs {
			lgs = append(lgs, s.lg)
		}
		if l.activeLg.total > 0 {
			lgs = append(lgs, l.activeLg)
		}
		return lgs
	}
	for _, mode := range []LoadMode{LoadHeap, MapArena} {
		t.Run(fmt.Sprint("mode ", mode), func(t *testing.T) {
			want := build()
			got := openLib(t, path, mode)
			defer got.Close()
			if fmt.Sprint(ledgers(got)) != fmt.Sprint(ledgers(want)) {
				t.Fatalf("reopened ledgers %v, fresh %v", ledgers(got), ledgers(want))
			}
			for _, l := range []*Library{want, got} {
				if err := l.Remove(3); err != nil {
					t.Fatal(err)
				}
				if _, err := l.Compact(0); err != nil {
					t.Fatal(err)
				}
			}
			if got.Describe().Windows != want.Describe().Windows {
				t.Fatalf("%d windows after compaction, fresh %d", got.Describe().Windows, want.Describe().Windows)
			}
			var gt, wt [2]int
			for _, lg := range ledgers(got) {
				gt[0], gt[1] = gt[0]+lg.total, gt[1]+lg.tombs
			}
			for _, lg := range ledgers(want) {
				wt[0], wt[1] = wt[0]+lg.total, wt[1]+lg.tombs
			}
			if gt != wt {
				t.Fatalf("ledger windows/tombstones %v after compaction, fresh %v", gt, wt)
			}
			assertLibrariesEquivalent(t, want, got)
		})
	}
}

// groupTableAt returns where an exact library file's group tables sit
// in data: the group count word, then segs × groups ends, then the meta
// CRC.
func groupTableAt(data []byte, groups int) (count, ends, crc int) {
	le := binary.LittleEndian
	crc = v3HeaderSize + int(le.Uint64(data[24:32])) - 4
	ends = crc - 4*int(le.Uint32(data[12:16]))*groups
	return ends - 4, ends, crc
}

// forgeGroupTable returns valid with its group tables rewritten by edit
// — the count word then every end, as uint32 — and the meta CRC made to
// match, so every checksum holds and only the table is hostile.
func forgeGroupTable(valid []byte, groups int, edit func(t []uint32)) []byte {
	b := append([]byte(nil), valid...)
	le := binary.LittleEndian
	count, _, crc := groupTableAt(b, groups)
	t := make([]uint32, (crc-count)/4)
	for i := range t {
		t[i] = le.Uint32(b[count+4*i:])
	}
	edit(t)
	for i, v := range t {
		le.PutUint32(b[count+4*i:], v)
	}
	le.PutUint32(b[crc:], crc32.ChecksumIEEE(b[v3HeaderSize:crc]))
	return b
}

// routedFuzzLibrary is a small exact library whose groups fill buckets
// in both of its segments: C = 2 at D = 1024, 32 groups.
func routedFuzzLibrary(t testing.TB) *Library {
	t.Helper()
	return routedLibrary(t, Params{Dim: 1024, Window: 16, Capacity: 2, Seed: 3}, randomRefs(2, 300, 4), 1, 1)
}

// hostileGroupTables are routed library files whose group tables a
// reader must refuse: falling ends, an end past the segment's buckets,
// and a group count other than the geometry's.
func hostileGroupTables(valid []byte, groups int) map[string][]byte {
	return map[string][]byte{
		"not monotone": forgeGroupTable(valid, groups, func(t []uint32) { t[1], t[2] = t[2]+1, 0 }),
		"overrun":      forgeGroupTable(valid, groups, func(t []uint32) { t[groups] = 1 << 20 }),
		"group count":  forgeGroupTable(valid, groups, func(t []uint32) { t[0] = uint32(groups / 2) }),
		"no groups":    forgeGroupTable(valid, groups, func(t []uint32) { t[0] = 0 }),
		"huge count":   forgeGroupTable(valid, groups, func(t []uint32) { t[0] = 1<<32 - 1 }),
	}
}

// TestHostileGroupTablesRejected: every hostile group table is an error
// from both readers, never a panic, and the routed file they were cut
// from opens.
func TestHostileGroupTablesRejected(t *testing.T) {
	lib := routedFuzzLibrary(t)
	valid := writeV3Bytes(t, lib)
	if _, ends, _ := groupTableAt(valid, lib.groups); binary.LittleEndian.Uint32(valid[ends+4*(lib.groups-1):]) == 0 {
		t.Fatal("no group of the first segment filled a bucket: the table under test is all zeros")
	}
	readLib(t, valid).Close()
	dir := t.TempDir()
	for name, data := range hostileGroupTables(valid, lib.groups) {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadIndex accepted the file", name)
		}
		path := filepath.Join(dir, "hostile.lib")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if idx, err := OpenLibraryFile(path, MapArena); err == nil {
			idx.Close()
			t.Errorf("%s: OpenLibraryFile accepted the file", name)
		}
	}
}

// BenchmarkRoutedLookup times a 32-base exact Lookup beside the scan it
// competes with, genome.FindAll over every reference: at the
// scan_exact_wire shape (16 × 8 223 random bases, C = 16, 32 groups) and
// over genome.GenerateVariantDB's 8 × 29 903 variants at the model's
// C = 63 (16 groups). Half the patterns are cut from a reference, half
// are random; us/lookup is the figure EXPERIMENTS "Content-routed exact
// lookup" records.
func BenchmarkRoutedLookup(b *testing.B) {
	variants := func() []genome.Record {
		cfg := genome.DefaultVariantDBConfig()
		cfg.NumVariants = 8
		db, err := genome.GenerateVariantDB(cfg)
		if err != nil {
			b.Fatal(err)
		}
		recs := make([]genome.Record, len(db.Variants))
		for i, v := range db.Variants {
			recs[i] = v.Record
		}
		return recs
	}
	for _, shape := range []struct {
		name string
		p    Params
		recs func() []genome.Record
	}{
		{"16x8223-C16", servedParams, func() []genome.Record { return randomRefs(16, 8223, 6108) }},
		{"8x29903-C63", Params{Dim: 8192, Window: 32, Seed: 1}, variants},
	} {
		recs := shape.recs()
		lib := routedLibrary(b, shape.p, recs, len(recs), 0)
		src := rng.New(6109)
		pats := make([]*genome.Sequence, 64)
		for i := range pats {
			if seq := recs[src.Intn(len(recs))].Seq; i%2 == 0 {
				off := src.Intn(seq.Len() - 32 + 1)
				pats[i] = seq.Slice(off, off+32)
			} else {
				pats[i] = genome.Random(32, src)
			}
		}
		b.Run(shape.name+"/index", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := lib.Lookup(pats[i%len(pats)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/lookup")
		})
		b.Run(shape.name+"/scan", func(b *testing.B) {
			var offs []int
			for i := 0; i < b.N; i++ {
				for _, r := range recs {
					offs, _ = genome.FindAll(offs[:0], r.Seq, pats[i%len(pats)], 0, 32)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/lookup")
		})
	}
}

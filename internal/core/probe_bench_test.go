package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// benchLib builds a frozen sealed library, approximate or exact, with
// the given bucket count: the default probe-benchmark geometry (D=8192,
// w=32, capacity 16, the dimensionality the rest of the suite tests
// at). One reference supplies capacity·nBuckets windows.
func benchLib(tb testing.TB, nBuckets int, approx bool) (*Library, []*hdc.HV) {
	tb.Helper()
	const capacity = 16
	p := Params{Dim: 8192, Window: 32, Stride: 1, Capacity: capacity, Seed: 42}
	if approx {
		p.Approx, p.MutTolerance = true, 2
	}
	lib, err := NewLibrary(p)
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(4242)
	ref := genome.Random(nBuckets*capacity+p.Window-1, src)
	if err := lib.Add(genome.Record{ID: "bench", Seq: ref}); err != nil {
		tb.Fatal(err)
	}
	lib.Freeze()
	if lib.Describe().Buckets != nBuckets {
		tb.Fatalf("built %d buckets, want %d", lib.Describe().Buckets, nBuckets)
	}
	// Query mix, 3:1 absent to present — most probes miss everywhere,
	// some light up a bucket, like a read-mapping workload.
	var queries []*hdc.HV
	for i := 0; i < 12; i++ {
		var q *genome.Sequence
		if i%4 == 0 {
			off := src.Intn(ref.Len() - p.Window)
			q = ref.Slice(off, off+p.Window)
		} else {
			q = genome.Random(p.Window, src)
		}
		if approx {
			queries = append(queries, lib.Encoder().EncodeWindowApprox(q, 0))
		} else {
			queries = append(queries, lib.Encoder().EncodeWindowExact(q, 0))
		}
	}
	return lib, queries
}

// seedProbeBaseline reproduces the seed implementation of Probe
// operation for operation: a serial scan over individually
// heap-allocated per-bucket hypervectors, one HV.Dot per bucket,
// per-iteration stats branches, and an un-presized append. It is the
// baseline BenchmarkProbe's speedup is measured against.
func seedProbeBaseline(l *Library, scattered []*hdc.HV, hv *hdc.HV, stats *Stats) []Candidate {
	tau := l.Describe().Threshold
	var out []Candidate
	for i := range scattered {
		score := float64(scattered[i].Dot(hv))
		if stats != nil {
			stats.BucketProbes++
		}
		if score >= tau {
			out = append(out, Candidate{Bucket: i, Score: score})
			if stats != nil {
				stats.CandidateBuckets++
			}
		}
	}
	return out
}

// scatterBuckets reproduces the seed's freeze-time heap layout. In the
// seed, bucket i's sealed vector was allocated by Acc.Seal at the
// moment bucket i+1 opened — i.e. interleaved with the next bucket's
// live 4·D-byte counter accumulator and window slice — so consecutive
// sealed rows landed pages apart, not back-to-back. The baseline
// clones with the same interleaving (the accumulators are released
// after the build, exactly as sealing released them, but Go's
// non-moving collector leaves the rows where they were born).
func scatterBuckets(l *Library) []*hdc.HV {
	n := l.Describe().Buckets
	d := l.Params().Dim
	out := make([]*hdc.HV, n)
	accs := make([][]int32, n)
	for i := range out {
		out[i] = l.BucketVector(i).Clone()
		accs[i] = make([]int32, d)
	}
	for i := range accs {
		accs[i] = nil
	}
	return out
}

var benchSizes = []int{1024, 4096, 16384}

// defaultBenchBuckets is the library size of the historical probe A/B
// record (EXPERIMENTS.md, "Retired per-PR bench records"): 1024 buckets
// — one PIM crossbar array of rows in the paper's geometry. The probe is
// measured end to end by bench/ now: core.probe_us and
// core.probemulti_us_per_query in the traced pass of scan_exact_wire
// (arena beyond the L2) and point_small_wire (256 KiB).
const defaultBenchBuckets = 1024

func BenchmarkProbe(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("buckets=%d", n), func(b *testing.B) {
			lib, queries := benchLib(b, n, true)
			var stats Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lib.Probe(queries[i%len(queries)], &stats); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/bucket")
		})
	}
}

func BenchmarkProbeSeedScalar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("buckets=%d", n), func(b *testing.B) {
			lib, queries := benchLib(b, n, true)
			scattered := scatterBuckets(lib)
			var stats Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seedProbeBaseline(lib, scattered, queries[i%len(queries)], &stats)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/bucket")
		})
	}
}

func BenchmarkLookup(b *testing.B) {
	lib, _ := benchLib(b, defaultBenchBuckets, true)
	src := rng.New(7)
	pat := genome.Random(lib.Params().Window, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lib.Lookup(pat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupBatch times a batch Search on the exact
// defaultBenchBuckets library at three batch sizes: a block and one
// pattern, eight blocks, and thirty-two. One pattern in four is cut
// from the reference, the rest are random.
func BenchmarkLookupBatch(b *testing.B) {
	lib, _ := benchLib(b, defaultBenchBuckets, false)
	ref := lib.Ref(0).Seq
	src := rng.New(8)
	for _, n := range []int{9, 64, 256} {
		pats := make([]*genome.Sequence, n)
		for i := range pats {
			if i%4 == 0 {
				off := src.Intn(ref.Len() - 32)
				pats[i] = ref.Slice(off, off+32)
			} else {
				pats[i] = genome.Random(32, src)
			}
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var a Answer
			for i := 0; i < b.N; i++ {
				if err := lib.Search(context.Background(), Query{Patterns: pats}, &a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchApproxLib builds the library of bench's approx_classify_inproc:
// 8 references of 288 bases at D = 8192, tolerance 2, which the model
// gives one window a row (2056 rows, 2 MiB) under a 16-word sketch.
func benchApproxLib(tb testing.TB) (*Library, []*genome.Sequence) {
	tb.Helper()
	lib, err := NewLibrary(Params{Dim: 8192, Window: 32, Stride: 1, Approx: true, MutTolerance: 2, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(4242)
	refs := make([]*genome.Sequence, 8)
	for i := range refs {
		refs[i] = genome.Random(288, src)
		if err := lib.Add(genome.Record{ID: fmt.Sprint("ref", i), Seq: refs[i]}); err != nil {
			tb.Fatal(err)
		}
	}
	lib.Freeze()
	return lib, refs
}

// BenchmarkClassifyApprox is the read path of approx_classify_inproc
// without the harness: 150-base reads cut from the references with 3 %
// substitutions, one in four random instead, classified at support 0.5
// — four windows encoded (the sketch's words only: one window a row),
// one blocked scan of the rows, the survivors verified, and the vote.
func BenchmarkClassifyApprox(b *testing.B) {
	lib, refs := benchApproxLib(b)
	src := rng.New(7)
	reads := make([]*genome.Sequence, 64)
	for i := range reads {
		if i%4 == 3 {
			reads[i] = genome.Random(150, src)
			continue
		}
		ref := refs[src.Intn(len(refs))]
		off := src.Intn(ref.Len() - 150 + 1)
		reads[i] = ref.Slice(off, off+150)
		for j := 0; j < 150; j++ {
			if src.Float64() < 0.03 {
				reads[i].Set(j, genome.Base((int(reads[i].At(j))+1+src.Intn(genome.AlphabetSize-1))%genome.AlphabetSize))
			}
		}
	}
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lib.Classify(reads[i%len(reads)], 0.5); err == nil {
			found++
		}
	}
	if b.N >= len(reads) && found == 0 {
		b.Fatal("no read was classified")
	}
}

// BenchmarkProbeBlockWidths times ProbeMulti at block widths 1, 2, 3, 4
// and 8 and reports µs per query: a wider block must never cost more
// per query than a narrower one. The exact rows are the geometry of
// bench's scan_exact_wire — 8192 buckets of D = 8192 at capacity 16,
// sealed, so the sketch cascade is engaged and the 40-word plane (2.5
// MiB) is what a block streams. The approx rows are
// approx_classify_inproc's library, 2056 rows under a 16-word plane
// (257 KiB).
func BenchmarkProbeBlockWidths(b *testing.B) {
	lib, queries := benchLib(b, 8192, false)
	alib, arefs := benchApproxLib(b)
	aqueries := make([]*hdc.HV, len(queries))
	for i := range aqueries { // every fourth a member window, like benchLib's mix
		q := genome.Random(32, rng.New(uint64(i)))
		if i%4 == 0 {
			q = arefs[i%len(arefs)].Slice(3*i, 3*i+32)
		}
		aqueries[i] = alib.Encoder().EncodeWindowApprox(q, 0)
	}
	for _, row := range []struct {
		suffix  string
		lib     *Library
		queries []*hdc.HV
	}{{"", lib, queries}, {"/approx", alib, aqueries}} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			b.Run(fmt.Sprintf("n=%d%s", n, row.suffix), func(b *testing.B) {
				var stats Stats
				for i := 0; i < b.N; i++ {
					at := i * n % (len(row.queries) - n + 1)
					if _, err := row.lib.ProbeMulti(row.queries[at:at+n], &stats); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/query")
			})
		}
	}
}

var buildBenchGeometries = []struct {
	name string
	p    Params
}{
	{"exact-C16", Params{Dim: 8192, Window: 32, Stride: 1, Capacity: 16, Seed: 42}},
	{"approx-C1", Params{Dim: 8192, Window: 32, Stride: 1, Capacity: 1, Approx: true, MutTolerance: 2, Seed: 42}},
}

// BenchmarkBuild is the ingest path without the harness — Add (encode
// one window, bundle it into its bucket) then Freeze — at the two build
// geometries of bench: scan_exact_wire's exact rows at capacity 16, and
// approx_classify_inproc's, where the model gives one window a row.
// NewLibrary and the calibration an approximate Freeze runs are inside
// the timer, as they are inside bench's setup_s.
func BenchmarkBuild(b *testing.B) {
	const windows = 2048
	for _, g := range buildBenchGeometries {
		b.Run(g.name, func(b *testing.B) {
			rec := genome.Record{ID: "bench", Seq: genome.Random(windows+g.p.Window-1, rng.New(4242))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lib, err := NewLibrary(g.p)
				if err != nil {
					b.Fatal(err)
				}
				if err := lib.Add(rec); err != nil {
					b.Fatal(err)
				}
				lib.Freeze()
				if lib.NumWindows() != windows {
					b.Fatalf("built %d windows, want %d", lib.NumWindows(), windows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		})
	}
}

// variantDB is the paper's search shape, built once per test process so
// a smoke pass stays short: the 8 first variants of
// genome.GenerateVariantDB's COVID-like defaults in an approximate
// library at tolerance 2 and the CLI's geometry, where the model gives
// one window a row, with its v3 size and the 32-base lookups
// BenchmarkApproxVariantDB times — windows of the variants two
// substitutions off.
var variantDB struct {
	once sync.Once
	lib  *Library
	v3   int64
	pats []*genome.Sequence
	err  error
}

func buildVariantDB() {
	vdb := &variantDB
	vdb.lib, vdb.pats, vdb.err = variantLibrary(Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 1})
	if vdb.err == nil {
		vdb.v3, vdb.err = vdb.lib.WriteToV3(io.Discard)
	}
}

// variantLibrary builds and freezes a library of p over the 8 first
// variants of genome.GenerateVariantDB's COVID-like defaults (29.9 kb
// each), with 64 windows of each variant two substitutions off.
func variantLibrary(p Params) (*Library, []*genome.Sequence, error) {
	cfg := genome.DefaultVariantDBConfig()
	cfg.NumVariants = 8
	db, err := genome.GenerateVariantDB(cfg)
	if err != nil {
		return nil, nil, err
	}
	lib, err := NewLibrary(p)
	if err != nil {
		return nil, nil, err
	}
	src := rng.New(0x7a1db)
	var pats []*genome.Sequence
	for _, v := range db.Variants {
		if err := lib.Add(v.Record); err != nil {
			return nil, nil, err
		}
		for i := 0; i < 64; i++ {
			off := src.Intn(v.Seq.Len() - 32 + 1)
			pat, _ := genome.SubstituteExactly(v.Seq.Slice(off, off+32), 2, src)
			pats = append(pats, pat)
		}
	}
	lib.Freeze()
	return lib, pats, nil
}

// BenchmarkApproxVariantDB reports what the variant library costs to
// hold — heap-B (MemoryFootprint) and v3-B (its file) — and µs per
// 32-base Lookup.
func BenchmarkApproxVariantDB(b *testing.B) {
	variantDB.once.Do(buildVariantDB)
	lib, pats := variantDB.lib, variantDB.pats
	if variantDB.err != nil {
		b.Fatal(variantDB.err)
	}
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := lib.Lookup(pats[i%len(pats)])
		if err != nil {
			b.Fatal(err)
		}
		found += min(len(m), 1)
	}
	if b.N >= len(pats) && found < len(pats) {
		b.Fatalf("%d of %d lookups found their window", found, b.N)
	}
	b.ReportMetric(float64(lib.MemoryFootprint()), "heap-B")
	b.ReportMetric(float64(variantDB.v3), "v3-B")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/lookup")
}

// BenchmarkVariantDBOpen opens the variant library's v3 file on both
// tiers at the two geometries whose probe plane holds the rows
// themselves: approximate at one window a row (C = 1), and exact at the
// CLI's derived capacity (C = 63, whole rows, no sketch stage). It
// reports ms per open, what one open allocates (B/op) and the opened
// library's MemoryFootprint (footprint-B, the mapped arena included).
// A heap open regroups the rows it read in place; a mapped open cuts a
// grouped heap plane from the mapping (DESIGN §7.5).
func BenchmarkVariantDBOpen(b *testing.B) {
	dir := b.TempDir()
	for _, g := range []struct {
		name string
		p    Params
	}{
		{"approx-C1", Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 1}},
		{"exact-C63", Params{Dim: 8192, Window: 32, Seed: 1}},
	} {
		lib, _, err := variantLibrary(g.p)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, g.name+".v3")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lib.WriteToV3(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			mode LoadMode
		}{{"heap", LoadHeap}, {"mapped", MapArena}} {
			b.Run(g.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var footprint int64
				for i := 0; i < b.N; i++ {
					idx, err := OpenLibraryFile(path, mode.mode)
					if err != nil {
						b.Fatal(err)
					}
					footprint = idx.MemoryFootprint()
					idx.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/open")
				b.ReportMetric(float64(footprint), "footprint-B")
			})
		}
	}
}

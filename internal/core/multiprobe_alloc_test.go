package core

import (
	"fmt"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// buildSegmentedProbeLib builds a frozen sealed library split across
// exactly segs segments: one from the initial Freeze, the rest sealed
// one per post-freeze Add.
func buildSegmentedProbeLib(tb testing.TB, segs int, seed uint64) (*Library, []*genome.Sequence) {
	tb.Helper()
	lib, err := NewLibrary(Params{Dim: 2048, Window: 24, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	src := rng.New(seed ^ 0xfeed)
	var refs []*genome.Sequence
	add := func(i int) {
		ref := genome.Random(600, src)
		refs = append(refs, ref)
		if err := lib.Add(genome.Record{ID: fmt.Sprintf("ref%d", i), Seq: ref}); err != nil {
			tb.Fatal(err)
		}
	}
	add(0)
	lib.Freeze()
	lib.SetSealThreshold(1)
	for i := 1; i < segs; i++ {
		add(i)
	}
	if got := lib.NumSegments(); got != segs {
		tb.Fatalf("NumSegments = %d, want %d", got, segs)
	}
	return lib, refs
}

// segmentedQueries builds a block-spanning query mix: member windows
// (hits) interleaved with random windows (misses).
func segmentedQueries(lib *Library, refs []*genome.Sequence, seed uint64) []*hdc.HV {
	src := rng.New(seed)
	w := lib.Params().Window
	n := BlockWidth*2 + 3 // spans three blocks, one partial
	hvs := make([]*hdc.HV, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ref := refs[i%len(refs)]
			off := src.Intn(ref.Len() - w)
			hvs = append(hvs, lib.Encoder().EncodeWindowExact(ref.Slice(off, off+w), 0))
		} else {
			hvs = append(hvs, lib.Encoder().EncodeWindowExact(genome.Random(w, src), 0))
		}
	}
	return hvs
}

// TestProbeMultiSegmentedAllocs gates the blocked multi-query scan's
// steady-state allocations across segment counts: the kernel path with
// a reused result spine must not allocate at all, and ProbeMulti itself
// must allocate nothing beyond the caller-owned spine on an all-miss
// batch.
func TestProbeMultiSegmentedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs sync.Pool allocation counts")
	}
	for _, segs := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("segments=%d", segs), func(t *testing.T) {
			lib, refs := buildSegmentedProbeLib(t, segs, 7000+uint64(segs))
			hvs := segmentedQueries(lib, refs, 7100+uint64(segs))
			sn := lib.snap.Load()

			// Kernel path: reuse the spine, truncate between runs. After
			// the warm-up run every dst has its high-water capacity, so
			// even the hit queries stop allocating.
			dsts := make([][]Candidate, len(hvs))
			sc := lib.getBlockScratch()
			defer lib.putBlockScratch(sc)
			scan := func() {
				for i := range dsts {
					dsts[i] = dsts[i][:0]
				}
				for base := 0; base < len(hvs); base += BlockWidth {
					hi := min(base+BlockWidth, len(hvs))
					lib.probeBlockInto(sn, dsts[base:hi], hvs[base:hi], nil, sc)
				}
			}
			scan() // establish capacities
			if avg := testing.AllocsPerRun(20, scan); avg > 0 {
				t.Errorf("probeBlockInto with reused spine allocates %.1f times per op, want 0", avg)
			}
			hits := 0
			for i := range dsts {
				hits += len(dsts[i])
			}
			if hits == 0 {
				t.Fatal("query mix produced no candidates; the gate would be vacuous")
			}

			// API path on an all-miss batch: the result spine is the only
			// allocation.
			miss := make([]*hdc.HV, BlockWidth+2)
			src := rng.New(7200 + uint64(segs))
			for i := range miss {
				miss[i] = lib.Encoder().EncodeWindowExact(genome.Random(lib.Params().Window, src), 0)
			}
			if _, err := lib.ProbeMulti(miss, nil); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if _, err := lib.ProbeMulti(miss, nil); err != nil {
					t.Fatal(err)
				}
			}); avg > 1 {
				t.Errorf("all-miss ProbeMulti allocates %.1f times per op, want ≤ 1 (the spine)", avg)
			}
		})
	}
}

// BenchmarkProbeMultiSegmented measures the blocked multi-query scan
// against segmented snapshots; allocs/op is the regression headline.
func BenchmarkProbeMultiSegmented(b *testing.B) {
	for _, segs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			lib, refs := buildSegmentedProbeLib(b, segs, 7300+uint64(segs))
			hvs := segmentedQueries(lib, refs, 7400+uint64(segs))
			sn := lib.snap.Load()
			dsts := make([][]Candidate, len(hvs))
			sc := lib.getBlockScratch()
			defer lib.putBlockScratch(sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dsts {
					dsts[j] = dsts[j][:0]
				}
				for base := 0; base < len(hvs); base += BlockWidth {
					hi := min(base+BlockWidth, len(hvs))
					lib.probeBlockInto(sn, dsts[base:hi], hvs[base:hi], nil, sc)
				}
			}
		})
	}
}

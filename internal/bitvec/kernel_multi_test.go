package bitvec

import "testing"

// multiQueries builds nq query word slices of nw words each.
func multiQueries(nq, nw int, seed uint64) [][]uint64 {
	qs := make([][]uint64, nq)
	for i := range qs {
		qs[i] = randWords(nw, seed+uint64(i)*1000)
	}
	return qs
}

// TestHammingMultiMatchesSingle pins the multi-query kernel to the
// single-query kernel for every block width and for word counts that
// straddle the chunk, block, and word-tail boundaries.
func TestHammingMultiMatchesSingle(t *testing.T) {
	for _, nw := range []int{0, 1, 3, 7, 8, 9, 16, 31, 32, 63, 64, 65, 71, 72, 128, 129, 200} {
		row := randWords(nw, uint64(nw)+7)
		for nq := 1; nq <= MaxMultiQueries; nq++ {
			qs := multiQueries(nq, nw, uint64(nw)*31+uint64(nq))
			dist := make([]int, nq)
			HammingMulti(row, qs, dist)
			for i := range qs {
				if want := HammingWords(row, qs[i]); dist[i] != want {
					t.Fatalf("nw=%d nq=%d query %d: HammingMulti=%d, HammingWords=%d",
						nw, nq, i, dist[i], want)
				}
			}
		}
	}
}

// TestHammingMultiBoundedExact checks per-query abandonment semantics:
// a set bit means the exact full distance within the bound; a clear bit
// means the bound was provably exceeded. Bounds bracket each query's
// full distance individually, including negative bounds.
func TestHammingMultiBoundedExact(t *testing.T) {
	for _, nw := range []int{5, 33, 65, 128} {
		row := randWords(nw, uint64(nw)*3+1)
		qs := multiQueries(MaxMultiQueries, nw, uint64(nw)*17)
		// A self-match in the middle of the block exercises the
		// zero-distance path alongside abandoning neighbours.
		qs[3] = append([]uint64(nil), row...)
		full := make([]int, len(qs))
		for i := range qs {
			full[i] = HammingWords(row, qs[i])
		}
		for _, delta := range []int{-nw*64 - 1, -1, 0, 1} {
			bounds := make([]int, len(qs))
			for i := range qs {
				bounds[i] = full[i] + delta
			}
			dist := make([]int, len(qs))
			mask := HammingMultiBounded(row, qs, bounds, dist)
			for i := range qs {
				wantPass := full[i] <= bounds[i]
				gotPass := mask&(1<<uint(i)) != 0
				if gotPass != wantPass {
					t.Fatalf("nw=%d delta=%d query %d: pass=%v, want %v (full=%d bound=%d)",
						nw, delta, i, gotPass, wantPass, full[i], bounds[i])
				}
				if gotPass && dist[i] != full[i] {
					t.Fatalf("nw=%d delta=%d query %d: accepted distance %d != full %d",
						nw, delta, i, dist[i], full[i])
				}
				if !gotPass && bounds[i] >= 0 && dist[i] <= bounds[i] {
					t.Fatalf("nw=%d delta=%d query %d: abandoned with witness %d not exceeding bound %d",
						nw, delta, i, dist[i], bounds[i])
				}
			}
		}
	}
}

// TestHammingMultiBoundedMixedBounds drives some queries out of the
// live mask early (bound 0 against a random row) while others must
// survive to the exact full distance, covering the dead-query skip
// paths inside the chunk loop.
func TestHammingMultiBoundedMixedBounds(t *testing.T) {
	const nw = 128
	row := randWords(nw, 11)
	qs := multiQueries(MaxMultiQueries, nw, 22)
	bounds := make([]int, len(qs))
	dist := make([]int, len(qs))
	for i := range qs {
		if i%2 == 0 {
			bounds[i] = 0 // abandons in the first chunk
		} else {
			bounds[i] = nw * 64 // always passes
		}
	}
	mask := HammingMultiBounded(row, qs, bounds, dist)
	for i := range qs {
		if i%2 == 0 {
			if mask&(1<<uint(i)) != 0 {
				t.Fatalf("query %d passed a zero bound against a random row", i)
			}
		} else {
			if mask&(1<<uint(i)) == 0 {
				t.Fatalf("query %d abandoned under an un-exceedable bound", i)
			}
			if want := HammingWords(row, qs[i]); dist[i] != want {
				t.Fatalf("query %d: surviving distance %d != full %d", i, dist[i], want)
			}
		}
	}
}

// TestHammingMultiEmptyBlock: a zero-query block is a no-op.
func TestHammingMultiEmptyBlock(t *testing.T) {
	row := randWords(16, 3)
	if mask := HammingMultiBounded(row, nil, nil, nil); mask != 0 {
		t.Fatalf("empty block mask = %#x, want 0", mask)
	}
}

func TestHammingMultiPanics(t *testing.T) {
	row := randWords(16, 1)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("length mismatch", func() {
		HammingMulti(row, [][]uint64{randWords(15, 2)}, make([]int, 1))
	})
	expectPanic("oversized block", func() {
		HammingMulti(row, multiQueries(MaxMultiQueries+1, 16, 5), make([]int, MaxMultiQueries+1))
	})
	expectPanic("short dist", func() {
		HammingMultiBounded(row, multiQueries(2, 16, 7), make([]int, 2), make([]int, 1))
	})
	expectPanic("short bounds", func() {
		HammingMultiBounded(row, multiQueries(2, 16, 9), make([]int, 1), make([]int, 2))
	})
}

// The multi-kernel benchmarks mirror a probe of one 8192-bit arena row
// against a full block of eight queries; per-query throughput is the
// number to compare against BenchmarkHammingWords8192.

func BenchmarkHammingMulti8x8192(b *testing.B) {
	row := randWords(128, 1)
	qs := multiQueries(8, 128, 2)
	dist := make([]int, 8)
	b.SetBytes(128 * 8 * 9) // one row + eight queries
	for i := 0; i < b.N; i++ {
		HammingMulti(row, qs, dist)
	}
	sinkHole = dist[0]
}

// BenchmarkHammingMultiBoundedAbandon measures the common probe case:
// every query far from the row, all abandoned after the first chunk.
func BenchmarkHammingMultiBoundedAbandon(b *testing.B) {
	row := randWords(128, 1)
	qs := multiQueries(8, 128, 2)
	bounds := make([]int, 8)
	dist := make([]int, 8)
	for i := range bounds {
		bounds[i] = 512 // full distance ≈ 4096
	}
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += int(HammingMultiBounded(row, qs, bounds, dist))
	}
	sinkHole = sink
}

// BenchmarkHammingMultiBoundedPass measures the worst case: no query
// ever abandons, the whole row is scanned for the whole block.
func BenchmarkHammingMultiBoundedPass(b *testing.B) {
	row := randWords(128, 1)
	qs := multiQueries(8, 128, 2)
	bounds := make([]int, 8)
	dist := make([]int, 8)
	for i := range bounds {
		bounds[i] = 8192
	}
	b.SetBytes(128 * 8 * 9)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += int(HammingMultiBounded(row, qs, bounds, dist))
	}
	sinkHole = sink
}

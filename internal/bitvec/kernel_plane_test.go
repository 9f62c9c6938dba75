package bitvec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// blockCase builds rows random w-word rows, row-major, and k queries,
// where every third row is a near copy of one of the queries (a few
// flipped bits) and row 2 is query 0 itself, so selective bounds have
// something to pass.
func blockCase(rows, w, k int, seed uint64) (src []uint64, qs [][]uint64) {
	r := rng.New(seed)
	for q := 0; q < k; q++ {
		qs = append(qs, randWords(w, seed+1+uint64(q)))
	}
	src = randWords(rows*w, seed+100)
	for i := 0; i < rows; i += 3 {
		row := src[i*w : (i+1)*w]
		copy(row, qs[i%k])
		for f := 0; f <= i%7; f++ {
			row[r.Intn(w)] ^= 1 << uint(r.Intn(64))
		}
	}
	if rows > 2 {
		copy(src[2*w:3*w], qs[0])
	}
	return src, qs
}

// grouped returns the plane layout of row-major rows of w words.
func grouped(src []uint64, w int) []uint64 {
	plane := make([]uint64, len(src))
	GroupRows(plane, src, w, w)
	return plane
}

// hit is one survivor of one query.
type hit struct{ row, dist int32 }

// scanAll runs a scan of rows [lo, hi) over one group tier to the end
// of the range, resuming wherever the kernel stops for room, and
// returns every query's survivors. It fails the test if a call makes
// no progress or returns past hi.
func scanAll(t *testing.T, b *QueryBlock, plane []uint64, bound, lo, hi int, tier groupScan) [][]hit {
	t.Helper()
	out := make([][]hit, b.k)
	for i := lo; ; {
		next := b.scan(plane, bound, i, hi, tier)
		if next > hi || next < i || next == i && i < hi {
			t.Fatalf("scan of rows [%d,%d) returned %d", i, hi, next)
		}
		for q := range out {
			rows, dists := b.Hits(q)
			for j := range rows {
				out[q] = append(out[q], hit{rows[j], dists[j]})
			}
		}
		if next == hi {
			return out
		}
		i = next
	}
}

// wantHits is the survivors of every query by HammingWords, row by row.
func wantHits(src []uint64, w int, qs [][]uint64, bound, lo, hi int) [][]hit {
	out := make([][]hit, len(qs))
	for i := lo; i < hi; i++ {
		for q, qw := range qs {
			if d := HammingWords(src[i*w:(i+1)*w], qw); d <= bound {
				out[q] = append(out[q], hit{int32(i), int32(d)})
			}
		}
	}
	return out
}

// newBlock loads qs into a fresh query block.
func newBlock(qs [][]uint64, w int) *QueryBlock {
	b := NewQueryBlock(w)
	b.Reset(w)
	for _, q := range qs {
		b.Add(q)
	}
	return b
}

// checkScanPlane holds one group tier to HammingWords for every query
// count: over row counts 0–17 and 37, ranges that start and end inside
// a group, empty ranges, and bounds that are negative, zero, exactly
// the distance of a planted row and of a random one, at the bulk of
// the random rows, and above every distance.
func checkScanPlane(t *testing.T, name string, widths []int, tier groupScan) {
	t.Helper()
	for _, w := range widths {
		for k := 1; k <= MaxMultiQueries; k++ {
			for _, rows := range []int{0, 1, 2, 3, 5, 7, 8, 9, 11, 15, 16, 17, 37} {
				src, qs := blockCase(rows, w, k, uint64(w*1000+k*40+rows))
				plane := grouped(src, w)
				b := newBlock(qs, w)
				bounds := []int{-1, 0, 1, 7, 32*w - 8, 32 * w, 64 * w}
				for _, i := range []int{0, 4, rows - 1} {
					if i >= 0 && i < rows {
						bounds = append(bounds, HammingWords(src[i*w:(i+1)*w], qs[k-1]))
					}
				}
				for _, r := range [][2]int{{0, rows}, {1, rows - 1}, {3, 3}, {5, 14}, {7, 24}, {8, 16}, {16, 17}, {9, 10}, {0, 8}, {rows / 2, rows}} {
					lo, hi := min(max(r[0], 0), rows), min(max(r[1], 0), rows)
					if lo > hi {
						continue
					}
					for _, bound := range bounds {
						got := scanAll(t, b, plane, bound, lo, hi, tier)
						if want := wantHits(src, w, qs, bound, lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s w=%d k=%d rows=%d [%d,%d) bound=%d: survivors %v, want %v", name, w, k, rows, lo, hi, bound, got, want)
						}
					}
				}
			}
		}
		// Worst-case density: every bit differs, so every byte lane of a
		// nibble-LUT accumulator takes its maximum per line.
		const rows = 19
		ones, zeros := make([]uint64, rows*w), make([][]uint64, MaxMultiQueries)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		for q := range zeros {
			zeros[q] = make([]uint64, w)
		}
		b := newBlock(zeros, w)
		for _, bound := range []int{64 * w, 64*w - 1} {
			got := scanAll(t, b, grouped(ones, w), bound, 0, rows, tier)
			if want := wantHits(ones, w, zeros, bound, 0, rows); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s w=%d all-ones bound=%d: survivors %v, want %v", name, w, bound, got, want)
			}
		}
	}
}

// checkScanRoom scans a plane every row of which passes, with a full
// block, so the kernel stops for room again and again: every call must
// fill each query's room to at most ScanRoom and the calls together
// must return every row once, in order.
func checkScanRoom(t *testing.T, name string, tier groupScan) {
	t.Helper()
	const w, rows = 8, 3*ScanRoom + 13
	src, qs := blockCase(rows, w, MaxMultiQueries, 77)
	plane, b := grouped(src, w), newBlock(qs, w)
	calls := 0
	for lo := 0; lo < rows; calls++ {
		next := b.scan(plane, 64*w, lo, rows, tier)
		for q := range qs {
			if r, _ := b.Hits(q); len(r) != next-lo || len(r) > ScanRoom {
				t.Fatalf("%s call %d: query %d kept %d of rows [%d,%d)", name, calls, q, len(r), lo, next)
			}
		}
		lo = next
	}
	if calls < rows/ScanRoom+1 {
		t.Fatalf("%s: %d calls for %d passing rows in rooms of %d", name, calls, rows, ScanRoom)
	}
	got := scanAll(t, b, plane, 64*w, 0, rows, tier)
	if want := wantHits(src, w, qs, 64*w, 0, rows); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: resumed scan differs from HammingWords", name)
	}
}

// TestScanPlaneMatchesHammingWords pins the dispatched range kernel and
// the portable group tier, over widths on both sides of the AVX2
// tier's 31-line runs.
func TestScanPlaneMatchesHammingWords(t *testing.T) {
	dispatch := func(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
		return scanGroups(b, plane, g0, ngroups, bound)
	}
	for name, tier := range map[string]groupScan{"dispatch": dispatch, "portable": scanGroupsGeneric} {
		checkScanPlane(t, name, []int{1, 5, 8, 16, 33, 40, 128}, tier)
		checkScanRoom(t, name, tier)
	}
}

// TestPlaneLayoutRoundTrip groups row-major rows every way the package
// offers — GroupRows, GroupInPlace, SetPlaneRow row by row, and
// GroupRows of a prefix — and reads them back through PlaneRow and
// UngroupRows, with tails of 0–7 rows.
func TestPlaneLayoutRoundTrip(t *testing.T) {
	for _, w := range []int{1, 3, 8, 16, 40} {
		for rows := 0; rows <= 25; rows++ {
			src := randWords(rows*w, uint64(rows*w+1))
			plane := grouped(src, w)
			inPlace := slices.Clone(src)
			GroupInPlace(inPlace, w)
			scattered := make([]uint64, len(src))
			for i := 0; i < rows; i++ {
				SetPlaneRow(scattered, w, i, src[i*w:(i+1)*w])
			}
			if !slices.Equal(inPlace, plane) || !slices.Equal(scattered, plane) {
				t.Fatalf("w=%d rows=%d: GroupInPlace or SetPlaneRow differs from GroupRows", w, rows)
			}
			row := make([]uint64, w)
			for i := 0; i < rows; i++ {
				if got := PlaneRow(row, plane, w, i); !slices.Equal(got, src[i*w:(i+1)*w]) {
					t.Fatalf("w=%d rows=%d: row %d gathers as %x, want %x", w, rows, i, got, src[i*w:(i+1)*w])
				}
			}
			var back []uint64
			UngroupRows(plane, w, func(r []uint64) {
				if len(r)%w != 0 {
					t.Fatalf("w=%d rows=%d: emitted %d words, not whole rows", w, rows, len(r))
				}
				back = append(back, r...)
			})
			if !slices.Equal(back, src) {
				t.Fatalf("w=%d rows=%d: UngroupRows does not give the rows back", w, rows)
			}
			if w > 1 {
				pw := w / 2
				prefixes := make([]uint64, rows*pw)
				for i := 0; i < rows; i++ {
					copy(prefixes[i*pw:], src[i*w:i*w+pw])
				}
				got := make([]uint64, rows*pw)
				GroupRows(got, src, w, pw)
				if !slices.Equal(got, grouped(prefixes, pw)) {
					t.Fatalf("w=%d rows=%d: the %d-word prefix plane differs", w, rows, pw)
				}
			}
		}
	}
}

func TestScanPlanePanics(t *testing.T) {
	src, qs := blockCase(10, 8, 2, 3)
	plane := grouped(src, 8)
	for name, fn := range map[string]func(){
		"zero width":  func() { NewQueryBlock(8).Reset(0) },
		"too wide":    func() { NewQueryBlock(8).Reset(9) },
		"short query": func() { b := NewQueryBlock(8); b.Reset(8); b.Add(qs[0][:7]) },
		"full block": func() {
			b := NewQueryBlock(8)
			b.Reset(8)
			for range MaxMultiQueries + 1 {
				b.Add(qs[0])
			}
		},
		"empty block":    func() { b := NewQueryBlock(8); b.Reset(8); b.ScanPlane(plane, 5, 0, 1) },
		"negative lo":    func() { newBlock(qs, 8).ScanPlane(plane, 5, -1, 1) },
		"inverted range": func() { newBlock(qs, 8).ScanPlane(plane, 5, 3, 2) },
		"past the plane": func() { newBlock(qs, 8).ScanPlane(plane, 5, 0, 11) },
		"short plane":    func() { GroupRows(make([]uint64, 7), src[:8], 8, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzScanPlane holds the dispatched range kernel to the per-row
// distance on arbitrary geometry, query count, range and bound; the
// seed picks the query count.
func FuzzScanPlane(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(37), uint8(1), uint8(36), int16(1230))
	f.Add(uint64(2), uint8(128), uint8(9), uint8(0), uint8(9), int16(4096))
	f.Add(uint64(3), uint8(5), uint8(3), uint8(2), uint8(2), int16(-1))
	f.Fuzz(func(t *testing.T, seed uint64, w8, rows8, lo8, hi8 uint8, bound16 int16) {
		w, rows, k := int(w8)%136+1, int(rows8)%40+1, int(seed%MaxMultiQueries)+1
		lo, hi := int(lo8)%(rows+1), int(hi8)%(rows+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		src, qs := blockCase(rows, w, k, seed)
		plane, b := grouped(src, w), newBlock(qs, w)
		bound := int(bound16)
		if next := b.ScanPlane(plane, bound, lo, hi); next != hi {
			t.Fatalf("w=%d k=%d rows [%d,%d): stopped at %d", w, k, lo, hi, next)
		}
		want := wantHits(src, w, qs, bound, lo, hi)
		for q := range qs {
			rows, dists := b.Hits(q)
			if len(rows) != len(want[q]) {
				t.Fatalf("w=%d k=%d rows [%d,%d) bound=%d: query %d kept %d rows, want %d", w, k, lo, hi, bound, q, len(rows), len(want[q]))
			}
			for j, h := range want[q] {
				if rows[j] != h.row || dists[j] != h.dist {
					t.Fatalf("w=%d k=%d rows [%d,%d) bound=%d: query %d survivor %d is (%d, %d), want (%d, %d)",
						w, k, lo, hi, bound, q, j, rows[j], dists[j], h.row, h.dist)
				}
			}
		}
	})
}

// BenchmarkScanPlane times the range kernel at the two workload
// geometries: scan_exact_wire's 40-word sketch plane over 8192 rows
// (D = 8192, C = 16) at one, three and eight queries a block, and its
// whole 128-word rows at one; approx_classify_inproc's 2 056 rows of
// 16 words at four. The bound passes a few percent of random rows;
// ns/query is the time per query of the block.
func BenchmarkScanPlane(b *testing.B) {
	for _, c := range []struct{ rows, w, k int }{{8192, 40, 1}, {8192, 40, 3}, {8192, 40, 8}, {8192, 128, 1}, {2056, 16, 4}} {
		b.Run(fmt.Sprintf("rows%d/w%d/k%d", c.rows, c.w, c.k), func(b *testing.B) {
			plane := grouped(randWords(c.rows*c.w, 1), c.w)
			qb := NewQueryBlock(c.w)
			qb.Reset(c.w)
			for q := 0; q < c.k; q++ {
				qb.Add(randWords(c.w, 2+uint64(q)))
			}
			bound := 32*c.w - int(8*math.Sqrt(float64(c.w))) // two sigma under a random row's mean
			b.SetBytes(int64(c.rows) * int64(c.w) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < c.rows; {
					lo = qb.ScanPlane(plane, bound, lo, c.rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.k), "ns/query")
		})
	}
}

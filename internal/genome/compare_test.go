package genome

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// naiveFindAll is FindAll's oracle: a per-base left-to-right compare at
// every offset, counting the matched prefix plus the mismatching base.
func naiveFindAll(text, pat *Sequence, poff, w int) ([]int, int) {
	var offs []int
	cmps := 0
	for off := 0; off+w <= text.Len(); off++ {
		j := 0
		for j < w && text.At(off+j) == pat.At(poff+j) {
			j++
		}
		cmps += j
		if j < w {
			cmps++
			continue
		}
		offs = append(offs, off)
	}
	return offs, cmps
}

// naiveMismatches is Mismatches' oracle without the early stop.
func naiveMismatches(a *Sequence, aoff int, b *Sequence, boff, w int) int {
	d := 0
	for i := 0; i < w; i++ {
		if a.At(aoff+i) != b.At(boff+i) {
			d++
		}
	}
	return d
}

// checkFindAll holds FindAll and Mismatches to their oracles for one
// text, pattern window and limit.
func checkFindAll(t *testing.T, name string, text, pat *Sequence, poff, w, limit int) {
	t.Helper()
	wantOffs, wantCmps := naiveFindAll(text, pat, poff, w)
	gotOffs, gotCmps := FindAll(nil, text, pat, poff, w)
	if !slices.Equal(gotOffs, wantOffs) || gotCmps != wantCmps {
		t.Fatalf("%s: FindAll = %v, %d comparisons; want %v, %d", name, gotOffs, gotCmps, wantOffs, wantCmps)
	}
	// Appending keeps what dst held.
	if got, _ := FindAll([]int{-7}, text, pat, poff, w); !slices.Equal(got, append([]int{-7}, wantOffs...)) {
		t.Fatalf("%s: FindAll onto a non-empty dst = %v", name, got)
	}
	for _, off := range []int{0, text.Len() / 3, text.Len() - w} {
		if off < 0 || off+w > text.Len() {
			continue
		}
		want := naiveMismatches(text, off, pat, poff, w)
		got := Mismatches(text, off, pat, poff, w, limit)
		if want <= limit && got != want || want > limit && (got <= limit || got > want) {
			t.Fatalf("%s: Mismatches(off %d, limit %d) = %d, exact distance %d", name, off, limit, got, want)
		}
	}
}

// periodic returns n bases repeating unit.
func periodic(unit string, n int) *Sequence {
	return MustFromString(strings.Repeat(unit, n/len(unit)+1)[:n])
}

// findAllWidths are the window widths the FindAll tests cover: below, at
// and above the four branch-free steps and the lane kernel's eight, and
// either side of one and two words.
var findAllWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 65, 1024}

// blockEdgeOffsets are offset counts either side of one and two full
// blocks of 32 lanes, of one and two groups of eight blocks (the lane
// kernel's step), and of the 64 blocks FindAll's survivor scratch holds
// when every block survives the kernel.
var blockEdgeOffsets = []int{31, 32, 33, 63, 64, 65, 255, 256, 257, 511, 512, 513, 2047, 2048, 2049}

func TestFindAllMatchesNaive(t *testing.T) {
	src := rng.New(41)
	for _, w := range findAllWidths {
		ns := []int{w - 1, w, w + 1, 2*w + 37, 3000}
		for _, c := range blockEdgeOffsets {
			ns = append(ns, w-1+c)
		}
		for _, n := range ns {
			texts := map[string]*Sequence{
				"random":   Random(n, src),
				"all-A":    NewSequence(n),
				"periodic": periodic("AC", n),
				"period-3": periodic("ACG", n),
			}
			for kind, text := range texts {
				name := fmt.Sprintf("w=%d n=%d %s", w, n, kind)
				// Windows of the text itself (so occurrences exist and
				// overlap on the repetitive texts), a pattern that agrees
				// on all but its last base, and a random pattern.
				if n >= w {
					for _, off := range []int{0, n - w, (n - w) / 2} {
						checkFindAll(t, name+" own window", text, text, off, w, w/8)
					}
					near := text.Slice(n-w, n)
					near.Set(w-1, near.At(w-1).Complement())
					checkFindAll(t, name+" last-base mismatch", text, near, 0, w, 0)
				}
				pat := Random(w+5, src)
				checkFindAll(t, name+" random pattern", text, pat, 5, w, 2)
			}
		}
	}
}

// TestFindAllEnds plants occurrences at offset 0 and at n−w of an
// otherwise random text, and at the edges of FindAll's blocks of 32
// offsets: the last lane of one block and the first lane of the next,
// also across the first edge of the lane kernel's groups of eight
// blocks (lane 31 of block 7, lane 0 of block 8); and near-occurrences
// that agree on the first p bases and differ at base p: at p = 8 or 9 a
// block survives the kernel's eight steps and finishes in the scalar
// ones, p = 31 fails at the last lane step, and at p ≥ 32 the lane
// passes all 32 and fails in tailPrefix. It also checks a text shorter
// than the window.
func TestFindAllEnds(t *testing.T) {
	src := rng.New(42)
	for _, w := range findAllWidths {
		pat := Random(w, src)
		text := pat.Append(Random(w+13, src)).Append(pat)
		n := text.Len()
		offs, _ := FindAll(nil, text, pat, 0, w)
		if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != n-w {
			t.Fatalf("w=%d: occurrences %v, want 0 first and %d last", w, offs, n-w)
		}
		checkFindAll(t, fmt.Sprintf("w=%d planted", w), text, pat, 0, w, 1)
		short := pat.Slice(0, w-1)
		if offs, cmps := FindAll(nil, short, pat, 0, w); len(offs) != 0 || cmps != 0 {
			t.Fatalf("w=%d: text shorter than the window gave %v, %d comparisons", w, offs, cmps)
		}

		for _, at := range []int{31, 32, 63, 64, 7*basesPerWord + 31, 8 * basesPerWord} {
			text := Random(at, src).Append(pat).Append(Random(300, src))
			name := fmt.Sprintf("w=%d planted at %d", w, at)
			if offs, _ := FindAll(nil, text, pat, 0, w); !slices.Contains(offs, at) {
				t.Fatalf("%s: occurrences %v", name, offs)
			}
			checkFindAll(t, name, text, pat, 0, w, 1)
		}
		// Lanes 31 and 32 both occur where the pattern has period one.
		as := NewSequence(w)
		text = Random(31, src).Append(NewSequence(w + 1)).Append(Random(40, src))
		if offs, _ := FindAll(nil, text, as, 0, w); !slices.Contains(offs, 31) || !slices.Contains(offs, 32) {
			t.Fatalf("w=%d: all-A occurrences %v, want 31 and 32", w, offs)
		}
		checkFindAll(t, fmt.Sprintf("w=%d all-A at 31 and 32", w), text, as, 0, w, 1)
		// Lanes that agree on p bases and fail at base p: one planted
		// lane in random text, in the first block and in the kernel's
		// first group, and every lane of every block in all-A text.
		for _, p := range []int{8, 9, 31, 32, 33, 63, 64, w / 2, w - 1} {
			if p >= w {
				continue
			}
			near := pat.Clone()
			near.Set(p, near.At(p).Complement())
			for _, at := range []int{31, 7*basesPerWord + 31} {
				text := Random(at, src).Append(near).Append(Random(300, src))
				checkFindAll(t, fmt.Sprintf("w=%d planted mismatch at base %d at %d", w, p, at), text, pat, 0, w, 1)
			}
			near = NewSequence(w)
			near.Set(p, C)
			checkFindAll(t, fmt.Sprintf("w=%d all-A mismatch at base %d", w, p), NewSequence(w+300), near, 0, w, 1)
		}
	}
}

// TestFindAllIgnoresPadding builds texts and patterns whose last packed
// word carries set bits past the sequence's end: those bits must never
// match or be counted.
func TestFindAllIgnoresPadding(t *testing.T) {
	src := rng.New(43)
	for _, w := range []int{1, 31, 32, 33, 64, 65} {
		for _, n := range []int{w, w + 7, 2*w + 3, 200} {
			r := n % basesPerWord
			if r == 0 {
				continue
			}
			for _, base := range []*Sequence{NewSequence(n), periodic("AC", n), Random(n, src)} {
				words := slices.Clone(base.PackedWords())
				words[len(words)-1] |= ^uint64(0) << (2 * uint(r)) // T past the end
				text := FromPackedWords(words, n)
				if !text.Equal(base) {
					t.Fatal("padding changed the bases")
				}
				// A pattern of T's would match if the padding were read.
				ts := periodic("T", w)
				checkFindAll(t, fmt.Sprintf("w=%d n=%d padded text", w, n), text, ts, 0, w, 3)
				checkFindAll(t, fmt.Sprintf("w=%d n=%d padded pattern", w, n), base, text, n-w, w, 3)
			}
		}
	}
}

// TestWordMatchesAt holds Word to its bases at every k and at offsets on
// and off a word boundary, and checks that it panics outside the
// sequence or above 32 bases.
func TestWordMatchesAt(t *testing.T) {
	seq := Random(100, rng.New(47))
	for _, i := range []int{0, 1, 31, 32, 33, 63, 68} {
		for k := 1; k <= basesPerWord && i+k <= seq.Len(); k++ {
			v := seq.Word(i, k)
			for j := 0; j < k; j++ {
				if Base(v>>(2*j)&3) != seq.At(i+j) {
					t.Fatalf("Word(%d, %d) base %d = %v, At = %v", i, k, j, Base(v>>(2*j)&3), seq.At(i+j))
				}
			}
			if v>>(2*k-1)>>1 != 0 {
				t.Fatalf("Word(%d, %d) = %#x has bits above base %d", i, k, v, k)
			}
		}
	}
	for _, c := range [][2]int{{-1, 1}, {99, 2}, {100, 1}, {0, 0}, {0, 33}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Word(%d, %d) did not panic", c[0], c[1])
				}
			}()
			seq.Word(c[0], c[1])
		}()
	}
}

func TestFindAllPanicsOutsidePattern(t *testing.T) {
	pat := MustFromString("ACGTACGT")
	for _, c := range [][2]int{{0, 0}, {-1, 4}, {5, 4}, {0, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FindAll(poff %d, w %d) did not panic", c[0], c[1])
				}
			}()
			FindAll(nil, pat, pat, c[0], c[1])
		}()
	}
}

// TestRangePanicMessage pins the text of an out-of-range At or Set,
// which is formatted only when the panic is printed.
func TestRangePanicMessage(t *testing.T) {
	seq := MustFromString("ACGT")
	for _, c := range []struct {
		op   func()
		want string
	}{
		{func() { seq.At(5) }, "genome: index 5 out of range [0,4)"},
		{func() { seq.Set(-1, A) }, "genome: index -1 out of range [0,4)"},
	} {
		func() {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || err.Error() != c.want {
					t.Fatalf("panic value %v, want error %q", r, c.want)
				}
			}()
			c.op()
		}()
	}
}

// FuzzFindAll holds FindAll and Mismatches to the per-base oracles on
// arbitrary texts and pattern windows; bases are the low two bits of
// each input byte.
func FuzzFindAll(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), []byte("GTAC"), uint16(0), uint16(3), uint8(1))
	f.Add([]byte(strings.Repeat("A", 100)), []byte(strings.Repeat("A", 40)), uint16(3), uint16(32), uint8(0))
	f.Add([]byte(strings.Repeat("AC", 80)), []byte(strings.Repeat("CA", 40)), uint16(1), uint16(63), uint8(2))
	f.Add([]byte("ACG"), []byte("ACGTA"), uint16(0), uint16(4), uint8(0))
	// The lane and block edges of TestFindAllEnds; the inputs hold
	// base values, 0 to 3, as bytes.
	src := rng.New(45)
	randomBases := func(n int) []byte {
		bs := make([]byte, n)
		for i := range bs {
			bs[i] = byte(src.Intn(AlphabetSize))
		}
		return bs
	}
	text := randomBases(60)
	for w := 2; w <= 5; w++ {
		f.Add(text, text, uint16(7), uint16(w-1), uint8(1))
	}
	for _, c := range blockEdgeOffsets {
		f.Add(make([]byte, 32+c), make([]byte, 33), uint16(0), uint16(32), uint8(0))
	}
	// The planted texts at 255 and 256 and the all-A seeds of at least
	// 255 offsets hold nine blocks or more, so the lane kernel runs.
	pat := randomBases(40)
	for _, at := range []int{31, 32, 63, 64, 7*32 + 31, 8 * 32} {
		planted := slices.Concat(randomBases(at), pat, randomBases(40))
		f.Add(planted, pat, uint16(0), uint16(39), uint8(1))
	}
	near := make([]byte, 48)
	near[40] = byte(C)
	f.Add(make([]byte, 100), near, uint16(0), uint16(47), uint8(1))
	near = make([]byte, 40)
	near[9] = byte(C)
	f.Add(make([]byte, 700), near, uint16(0), uint16(39), uint8(1))
	f.Fuzz(func(t *testing.T, textB, patB []byte, poffRaw, wRaw uint16, limit uint8) {
		if len(patB) == 0 || len(textB) > 4096 || len(patB) > 4096 {
			return
		}
		toSeq := func(bs []byte) *Sequence {
			s := NewSequence(len(bs))
			for i, b := range bs {
				s.Set(i, Base(b&3))
			}
			return s
		}
		text, pat := toSeq(textB), toSeq(patB)
		w := int(wRaw)%pat.Len() + 1
		poff := int(poffRaw) % (pat.Len() - w + 1)
		checkFindAll(t, "fuzz", text, pat, poff, w, int(limit))
	})
}

// BenchmarkFindAll times one FindAll over a text of 2 048 + w bases, the
// shape of a cobs candidate reference, for windows of 32, 64 and 1 024
// bases. Half the patterns are windows of the text and half are random.
// On random text most blocks of offsets are settled in a few steps; the
// all-A text keeps every lane of every block live for all 32 steps, and
// a present pattern occurs at every offset.
func BenchmarkFindAll(b *testing.B) {
	for _, w := range []int{32, 64, 1024} {
		for _, kind := range []string{"random", "all-A"} {
			b.Run(fmt.Sprintf("w=%d/%s", w, kind), func(b *testing.B) {
				src := rng.New(uint64(w))
				n := 2048 + w
				text := NewSequence(n)
				if kind == "random" {
					text = Random(n, src)
				}
				pats := make([]*Sequence, 16)
				for i := range pats {
					if i%2 == 0 {
						off := src.Intn(n - w + 1)
						pats[i] = text.Slice(off, off+w)
					} else {
						pats[i] = Random(w, src)
					}
				}
				var dst []int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst, _ = FindAll(dst[:0], text, pats[i%len(pats)], 0, w)
				}
			})
		}
	}
}

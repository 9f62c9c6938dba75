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

func TestFindAllMatchesNaive(t *testing.T) {
	src := rng.New(41)
	for _, w := range []int{1, 31, 32, 33, 64, 65, 1024} {
		for _, n := range []int{w - 1, w, w + 1, 2*w + 37, 3000} {
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
// otherwise random text, and checks a text shorter than the window.
func TestFindAllEnds(t *testing.T) {
	src := rng.New(42)
	for _, w := range []int{1, 31, 32, 33, 64, 65, 1024} {
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

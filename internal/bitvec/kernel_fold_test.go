package bitvec

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// majorityFold and parityFold are the shapes of MajorityRows and
// XorRows and of each tier's assembly behind a wrapper, so one checker
// pins them all.
type (
	majorityFold func(out, table []uint64, idx []int32, rowWords int, tie []uint64, tieOn bool)
	parityFold   func(out, table []uint64, idx []int32, rowWords int)
	eqFold       func(out, eq, table []uint64, idx []int32, rowWords int)
)

// foldTableRows is how many rows every test table holds.
const foldTableRows = 12

// foldCase builds a table of foldTableRows rows of w words, n row
// indices into it and a tie row. Rows 0 and 1 are complements of each
// other, so alternating them puts every lane of an even fold on a tie
// and every lane of an odd fold one row either side of it.
//
//	random      independent indices, random rows
//	repeat      one row n times: every lane saturates at 0 or n
//	complement  rows 0, 1, 0, 1, …
//	ones, zeros random indices into an all-ones / all-zero table
func foldCase(kind string, w, n int, seed uint64) (table []uint64, idx []int32, tie []uint64) {
	src := rng.New(seed)
	table = randWords(foldTableRows*w, seed+1)
	for c := 0; c < w; c++ {
		table[w+c] = ^table[c]
	}
	tie = randWords(w, seed+2)
	idx = make([]int32, n)
	for j := range idx {
		idx[j] = int32(src.Intn(foldTableRows))
	}
	switch kind {
	case "random":
	case "repeat":
		for j := range idx {
			idx[j] = idx[0]
		}
	case "complement":
		for j := range idx {
			idx[j] = int32(j & 1)
		}
	case "ones":
		for i := range table {
			table[i] = ^uint64(0)
		}
	case "zeros":
		clear(table)
	default:
		panic("unknown fold case " + kind)
	}
	return table, idx, tie
}

var foldKinds = []string{"random", "repeat", "complement", "ones", "zeros"}

// naiveMajority and naiveParity are the bit-at-a-time definitions.
func naiveMajority(table []uint64, idx []int32, w int, tie []uint64, tieOn bool) []uint64 {
	out := make([]uint64, w)
	for bit := 0; bit < 64*w; bit++ {
		ones := 0
		for _, i := range idx {
			ones += int(table[int(i)*w+bit/64] >> uint(bit%64) & 1)
		}
		set := 2*ones > len(idx)
		if 2*ones == len(idx) && tieOn {
			set = tie[bit/64]>>uint(bit%64)&1 == 1
		}
		if set {
			out[bit/64] |= 1 << uint(bit%64)
		}
	}
	return out
}

// naiveEq is the bit-at-a-time definition of MajorityRowsEq's eq: the
// lanes where exactly ⌊n/2⌋ rows are set.
func naiveEq(table []uint64, idx []int32, w int) []uint64 {
	eq := make([]uint64, w)
	for bit := 0; bit < 64*w; bit++ {
		ones := 0
		for _, i := range idx {
			ones += int(table[int(i)*w+bit/64] >> uint(bit%64) & 1)
		}
		if ones == len(idx)/2 {
			eq[bit/64] |= 1 << uint(bit%64)
		}
	}
	return eq
}

func naiveParity(seed, table []uint64, idx []int32, w int) []uint64 {
	out := slices.Clone(seed)
	for _, i := range idx {
		for c := range out {
			out[c] ^= table[int(i)*w+c]
		}
	}
	return out
}

// checkFolds holds a majority and a parity fold to the naive
// definitions over every case kind at each width and row count, with
// the tie row on and off, and the parity fold seeded with random words
// (XorRows accumulates into out).
func checkFolds(t *testing.T, name string, widths, counts []int, major majorityFold, parity parityFold) {
	t.Helper()
	for _, w := range widths {
		for _, n := range counts {
			for _, kind := range foldKinds {
				table, idx, tie := foldCase(kind, w, n, uint64(w)*1009+uint64(n))
				for _, tieOn := range []bool{false, true} {
					got := randWords(w, 5) // must be overwritten, not merged
					major(got, table, idx, w, tie, tieOn)
					if want := naiveMajority(table, idx, w, tie, tieOn); !slices.Equal(got, want) {
						t.Fatalf("%s majority w=%d n=%d %s tieOn=%v: differs from the bit-at-a-time fold in %d bits",
							name, w, n, kind, tieOn, HammingWords(got, want))
					}
				}
				seed := randWords(w, 6)
				got := slices.Clone(seed)
				parity(got, table, idx, w)
				if want := naiveParity(seed, table, idx, w); !slices.Equal(got, want) {
					t.Fatalf("%s parity w=%d n=%d %s: differs from the bit-at-a-time fold in %d bits",
						name, w, n, kind, HammingWords(got, want))
				}
			}
		}
	}
}

// checkEqFolds holds a one-pass majority with its eq lanes to the naive
// definitions over every case kind at each width and row count.
func checkEqFolds(t *testing.T, name string, widths, counts []int, fold eqFold) {
	t.Helper()
	for _, w := range widths {
		for _, n := range counts {
			for _, kind := range foldKinds {
				table, idx, _ := foldCase(kind, w, n, uint64(w)*1013+uint64(n))
				out, eq := randWords(w, 7), randWords(w, 8) // must be overwritten, not merged
				fold(out, eq, table, idx, w)
				if want := naiveMajority(table, idx, w, nil, false); !slices.Equal(out, want) {
					t.Fatalf("%s eq fold w=%d n=%d %s: majority differs from the bit-at-a-time fold in %d bits",
						name, w, n, kind, HammingWords(out, want))
				}
				if want := naiveEq(table, idx, w); !slices.Equal(eq, want) {
					t.Fatalf("%s eq fold w=%d n=%d %s: eq lanes differ from the bit-at-a-time count in %d bits",
						name, w, n, kind, HammingWords(eq, want))
				}
			}
		}
	}
}

// TestMajorityRowsEqMatchesNaive pins the one-pass fold with its eq
// lanes, dispatched and on the portable tier (kernel_amd64_test.go
// holds each vector tier to the same definitions).
func TestMajorityRowsEqMatchesNaive(t *testing.T) {
	checkEqFolds(t, "dispatch", []int{1, 3, 8, 16, 24, 128}, foldCounts, MajorityRowsEq)
	checkEqFolds(t, "portable", []int{1, 8, 9}, foldCounts, portableEq)
}

// foldCounts covers every adder-tree remainder, the plane-count
// boundaries up to eight planes, both parities around them, and the
// two counts past foldMaxRows that must stay on the portable tier.
var foldCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 127, 128, 129, 254, 255, 256, 257}

// TestFoldRowsMatchNaive pins the dispatched folds over widths that are
// whole kernel blocks (the vector tiers) and widths that are not.
func TestFoldRowsMatchNaive(t *testing.T) {
	checkFolds(t, "dispatch", []int{1, 3, 8, 12, 16, 24}, foldCounts, MajorityRows, XorRows)
	checkFolds(t, "dispatch", []int{64, 128, 136}, []int{1, 32, 255, 256}, MajorityRows, XorRows)
}

// portableMajority and portableEq are majorityRowsGeneric behind
// MajorityRows' and MajorityRowsEq's shapes.
func portableMajority(out, table []uint64, idx []int32, w int, tie []uint64, tieOn bool) {
	majorityRowsGeneric(out, nil, table, idx, w, tie, foldTieMask(len(idx), tieOn))
}

func portableEq(out, eq, table []uint64, idx []int32, w int) {
	majorityRowsGeneric(out, eq, table, idx, w, eq, 0)
}

// TestFoldRowsPortableMatchNaive pins the portable tiers directly, so
// they are held to the definition on hosts whose dispatch never reaches
// them, far past eight planes.
func TestFoldRowsPortableMatchNaive(t *testing.T) {
	checkFolds(t, "portable", []int{1, 8, 9}, append([]int{511, 512, 1000}, foldCounts...), portableMajority, xorRowsGeneric)
}

func TestFoldRowsPanics(t *testing.T) {
	table, idx, tie := foldCase("random", 8, 4, 1)
	out := make([]uint64, 8)
	with := func(at int, v int32) []int32 {
		bad := slices.Clone(idx)
		bad[at] = v
		return bad
	}
	for name, fn := range map[string]func(){
		"majority zero width":     func() { MajorityRows(nil, table, idx, 0, nil, true) },
		"majority short out":      func() { MajorityRows(out[:7], table, idx, 8, tie, true) },
		"majority long out":       func() { MajorityRows(make([]uint64, 16), table, idx, 8, tie, true) },
		"majority short tie":      func() { MajorityRows(out, table, idx, 8, tie[:7], true) },
		"majority no rows":        func() { MajorityRows(out, table, nil, 8, tie, true) },
		"majority negative index": func() { MajorityRows(out, table, with(2, -1), 8, tie, true) },
		"majority past the table": func() { MajorityRows(out, table, with(3, foldTableRows), 8, tie, true) },
		"majority partial row":    func() { MajorityRows(out, table[:len(table)-1], with(0, foldTableRows-1), 8, tie, true) },
		"eq short eq":             func() { MajorityRowsEq(out, tie[:7], table, idx, 8) },
		"eq short out":            func() { MajorityRowsEq(out[:7], tie, table, idx, 8) },
		"eq no rows":              func() { MajorityRowsEq(out, tie, table, nil, 8) },
		"parity zero width":       func() { XorRows(nil, table, idx, 0) },
		"parity short out":        func() { XorRows(out[:7], table, idx, 8) },
		"parity no rows":          func() { XorRows(out, table, nil, 8) },
		"parity negative index":   func() { XorRows(out, table, with(0, -5), 8) },
		"parity past the table":   func() { XorRows(out, table, with(1, foldTableRows), 8) },
		"parity partial row":      func() { XorRows(out, table[:len(table)-1], with(0, foldTableRows-1), 8) },
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

// FuzzFoldRows holds the dispatched folds to the portable tiers on
// arbitrary shape, indices and table bytes. Widths land on whole kernel
// blocks half the time, so on a host with vector tiers the comparison
// is vector against portable; elsewhere it pins the wrappers.
func FuzzFoldRows(f *testing.F) {
	f.Add(uint8(1), uint8(32), true, []byte("ACGTACGTTTGACCA"), []byte{0xff, 0x00, 0xa5})
	f.Add(uint8(16), uint8(255), false, []byte{0, 0, 0, 0}, []byte{})
	f.Add(uint8(0x83), uint8(31), true, []byte{1, 0, 1, 0, 5, 11}, []byte{0x01, 0x23, 0x45, 0x67, 0x89})
	f.Add(uint8(3), uint8(7), true, []byte{9, 1, 200}, []byte{0x80, 0x01})
	f.Fuzz(func(t *testing.T, w8, n8 uint8, tieOn bool, rawIdx, rawTable []byte) {
		w := int(w8)%24 + 1
		if w8&0x80 != 0 {
			w = (int(w8)%4 + 1) * kernelBlock
		}
		n := int(n8) + 1 // 1 … 256: one count past foldMaxRows
		table := make([]uint64, foldTableRows*w)
		for i := range table { // table bytes, repeated and position-mixed
			var b uint64
			for k := 0; k < 8 && len(rawTable) > 0; k++ {
				b = b<<8 | uint64(rawTable[(i*8+k)%len(rawTable)])
			}
			table[i] = b ^ uint64(i)*0x9e3779b97f4a7c15
		}
		if len(rawTable) > 0 && rawTable[0]&1 == 1 {
			for c := 0; c < w; c++ { // a complementary pair, so lanes tie
				table[w+c] = ^table[c]
			}
		}
		idx := make([]int32, n)
		for j := range idx {
			if len(rawIdx) > 0 {
				idx[j] = int32(rawIdx[j%len(rawIdx)]) % foldTableRows
			}
		}
		tie := randWords(w, uint64(n8))
		got, want := make([]uint64, w), make([]uint64, w)
		MajorityRows(got, table, idx, w, tie, tieOn)
		portableMajority(want, table, idx, w, tie, tieOn)
		if !slices.Equal(got, want) {
			t.Fatalf("majority w=%d n=%d tieOn=%v: dispatch differs from the portable tier in %d bits", w, n, tieOn, HammingWords(got, want))
		}
		copy(got, tie)
		copy(want, tie)
		XorRows(got, table, idx, w)
		xorRowsGeneric(want, table, idx, w)
		if !slices.Equal(got, want) {
			t.Fatalf("parity w=%d n=%d: dispatch differs from the portable tier in %d bits", w, n, HammingWords(got, want))
		}
	})
}

// foldBenchCase is every benchmark workload's geometry (D = 8192,
// Window 32) as a fold: 32 rows of 128 words, one out of each four
// consecutive rows of a 132-row table, as an encoder picks them.
func foldBenchCase() (table []uint64, idx []int32, tie []uint64, w int) {
	const n, rows = 32, 132
	w = 128
	src := rng.New(3)
	idx = make([]int32, n)
	for j := range idx {
		idx[j] = int32(4*j + src.Intn(4))
	}
	return randWords(rows*w, 1), idx, randWords(w, 2), w
}

// benchFolds times one majority and one parity fold under name; a nil
// parity is a tier without one.
func benchFolds(b *testing.B, name string, major majorityFold, parity parityFold) {
	table, idx, tie, w := foldBenchCase()
	out := make([]uint64, w)
	b.Run(name+"/majority", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			major(out, table, idx, w, tie, true)
		}
	})
	if parity == nil {
		return
	}
	b.Run(name+"/parity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parity(out, table, idx, w)
		}
	})
}

// BenchmarkFoldRows times the dispatched folds and the portable tiers
// at the benchmark geometry; kernel_amd64_test.go adds each vector tier.
func BenchmarkFoldRows(b *testing.B) {
	benchFolds(b, "dispatch", MajorityRows, XorRows)
	benchFolds(b, "portable", portableMajority, xorRowsGeneric)
}

// Property: the parity fold is a group operation — XorRows gives the same
// words for any order of the indices, and a row named twice cancels.
func TestQuickXorGroup(t *testing.T) {
	f := func(seed uint64, perm uint8) bool {
		const w, rows = 5, 6
		table := randWords(rows*w, seed)
		idx := []int32{0, 1, 2, 3, 4, 5}
		shuffled := slices.Clone(idx)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(perm) % (i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		a, b, c := make([]uint64, w), make([]uint64, w), make([]uint64, w)
		XorRows(a, table, idx, w)
		XorRows(b, table, shuffled, w)
		XorRows(c, table, append(shuffled, 3, 3), w)
		return slices.Equal(a, b) && slices.Equal(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

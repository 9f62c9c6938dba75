package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/rng"
)

// laneOnes is the 0b01 pattern: bit 2i marks lane i.
const laneOnes = 0x5555555555555555

// laneStepsRef is the Go reference of LaneMatch on block q: every lane
// live, then steps 0 … LaneSteps−1 exactly as genome.FindAll's scalar
// loop runs them. It returns the live mask after the last step and
// Σ popcount of the mask after every step.
func laneStepsRef(words []uint64, q int, key uint64) (m uint64, cmps int) {
	lo, hi := words[q], words[q+1]
	m = laneOnes
	for j := range LaneSteps {
		s := 2 * uint(j)
		x := (lo>>s | hi<<(64-s)) ^ key>>s&3*laneOnes
		m &^= x | x>>1
		cmps += bits.OnesCount64(m)
	}
	return m, cmps
}

// packSymbols packs 2-bit symbols 32 to a word, symbol i at bits 2i and
// 2i+1 of word i/32.
func packSymbols(sym []byte) []uint64 {
	words := make([]uint64, (len(sym)+31)/32)
	for i, s := range sym {
		words[i/32] |= uint64(s&3) << (2 * uint(i%32))
	}
	return words
}

// laneText returns the words of g groups (8g + 1 words) of kind, and a
// key that occurs in it: random words with the key planted in lane 31
// of block 7 and lane 0 of block 8 (the two sides of the first group
// edge) and in the last lane of the last block; all-A; and the
// periodic texts "AC" and "ACG", keyed on their own first symbols so
// that whole residues of lanes stay live.
func laneText(kind string, g int, seed uint64) (words []uint64, key uint64) {
	nw := g*LaneGroup + 1
	src := rng.New(seed)
	sym := make([]byte, 32*nw)
	switch kind {
	case "random", "planted":
		for i := range sym {
			sym[i] = byte(src.Intn(4))
		}
	case "AC", "ACG":
		for i := range sym {
			sym[i] = "\x00\x01\x02"[i%len(kind)]
		}
	}
	key = src.Uint64()
	if kind != "random" {
		key = packSymbols(sym[:32])[0]
	}
	if kind == "planted" {
		for _, at := range []int{7*32 + 31, 8 * 32, 32*(nw-1) - 1} {
			for j := range LaneSteps {
				sym[at+j] = byte(key >> (2 * uint(j)) & 3)
			}
		}
	}
	return packSymbols(sym), key
}

// laneLoop drives LaneMatch the way genome.FindAll does — survivors
// back into a scratch of room entries, the next call from the first
// unscanned block — and returns every survivor (block, mask) and the
// count over the blocks it scanned.
func laneLoop(words []uint64, key uint64, blocks []int32, masks []uint64) (gotBlocks []int, gotMasks []uint64, cmps, scanned int) {
	full := len(words) - 1
	for scanned+LaneGroup <= full {
		g, n, c := LaneMatch(words[scanned:], key, blocks, masks)
		if g == 0 {
			break
		}
		for i := range n {
			gotBlocks = append(gotBlocks, scanned+int(blocks[i]))
			gotMasks = append(gotMasks, masks[i])
		}
		cmps += c
		scanned += g * LaneGroup
	}
	return gotBlocks, gotMasks, cmps, scanned
}

// checkLaneMatch holds laneLoop over words to laneStepsRef block by
// block. On the AVX-512 tier every whole group is scanned; elsewhere
// nothing is.
func checkLaneMatch(t *testing.T, name string, words []uint64, key uint64, blocks []int32, masks []uint64) {
	t.Helper()
	gotBlocks, gotMasks, cmps, scanned := laneLoop(words, key, blocks, masks)
	wantScanned := 0
	if Kernel() == "avx512-vpopcnt" {
		wantScanned = (len(words) - 1) / LaneGroup * LaneGroup
	}
	if scanned != wantScanned {
		t.Fatalf("%s: scanned %d blocks, want %d", name, scanned, wantScanned)
	}
	var wantBlocks []int
	var wantMasks []uint64
	wantCmps := 0
	for q := range scanned {
		m, c := laneStepsRef(words, q, key)
		wantCmps += c
		if m != 0 {
			wantBlocks = append(wantBlocks, q)
			wantMasks = append(wantMasks, m)
		}
	}
	if !slices.Equal(gotBlocks, wantBlocks) || !slices.Equal(gotMasks, wantMasks) || cmps != wantCmps {
		t.Fatalf("%s: survivors %v masks %x count %d; want %v %x %d", name, gotBlocks, gotMasks, cmps, wantBlocks, wantMasks, wantCmps)
	}
}

// TestLaneMatchMatchesReference pins every survivor and the count for 1
// to 33 groups of each text, with room for one group, for one group and
// a bit, and for more than the text has; and a trailing partial group
// that must stay unscanned.
func TestLaneMatchMatchesReference(t *testing.T) {
	for _, kind := range []string{"random", "planted", "all-A", "AC", "ACG"} {
		for g := 1; g <= 33; g++ {
			words, key := laneText(kind, g, uint64(g))
			for _, room := range []int{LaneGroup, LaneGroup + 3, 64} {
				name := fmt.Sprintf("%s g=%d room=%d", kind, g, room)
				checkLaneMatch(t, name, words, key, make([]int32, room), make([]uint64, room))
			}
			extra := append(slices.Clone(words), words[:LaneGroup-1]...)
			checkLaneMatch(t, fmt.Sprintf("%s g=%d and 7 words", kind, g), extra, key, make([]int32, 64), make([]uint64, 64))
		}
	}
}

// TestLaneMatchScansNothingShort checks the cases LaneMatch leaves
// entirely to its caller: fewer than one group and a word, and room
// for fewer than one group of survivors.
func TestLaneMatchScansNothingShort(t *testing.T) {
	words, key := laneText("all-A", 1, 1)
	for _, c := range []struct {
		nw, room int
	}{{0, 64}, {1, 64}, {LaneGroup, 64}, {LaneGroup + 1, LaneGroup - 1}} {
		if g, n, cmps := LaneMatch(words[:c.nw], key, make([]int32, c.room), make([]uint64, c.room)); g != 0 || n != 0 || cmps != 0 {
			t.Errorf("%d words, room %d: scanned (%d, %d, %d), want nothing", c.nw, c.room, g, n, cmps)
		}
	}
}

// BenchmarkLaneMatch times LaneMatch over 64 groups (16 384 offsets) of
// random words, where almost no block survives the eight steps, and of
// all-A words, where every block does.
func BenchmarkLaneMatch(b *testing.B) {
	for _, kind := range []string{"random", "all-A"} {
		b.Run(kind, func(b *testing.B) {
			words, key := laneText(kind, 64, 9)
			var blocks [64]int32
			var masks [64]uint64
			b.SetBytes(int64(8 * len(words)))
			b.ResetTimer()
			for range b.N {
				for q := 0; q+LaneGroup < len(words); {
					g, _, _ := LaneMatch(words[q:], key, blocks[:], masks[:])
					if g == 0 {
						break
					}
					q += g * LaneGroup
				}
			}
		})
	}
}

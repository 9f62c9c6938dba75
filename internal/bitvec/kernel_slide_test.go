package bitvec

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// slideFn and depositFn are the shapes of SlideRows and DepositBits and
// of each tier behind them, so one checker pins them all.
type (
	slideFn   func(out, table []uint64, a, b int32, rowWords int)
	depositFn func(out, mask, stream []uint64)
)

// portableSlide is slideRowsGeneric behind SlideRows' shape.
func portableSlide(out, table []uint64, a, b int32, w int) {
	slideRowsGeneric(out, table[int(a)*w:][:w], table[int(b)*w:][:w])
}

// naiveSlide is the slide's definition: XOR the two rows in, then
// rotate the sum by −1 with RotateWords.
func naiveSlide(out, table []uint64, a, b int32, w int) []uint64 {
	sum := slices.Clone(out)
	for c := range sum {
		sum[c] ^= table[int(a)*w+c] ^ table[int(b)*w+c]
	}
	want := make([]uint64, w)
	RotateWords(want, sum, -1)
	return want
}

// slideWidths covers one word (the wrap is the word's own bit 0), every
// remainder of the portable tier's four-word step, whole and partial
// 64-byte blocks, and the benchmark workloads' 128 words.
var slideWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 64, 128, 136}

// checkSlide holds slide to the definition over slideWidths: random
// rows, a row named twice (the sum is out itself), all-ones and
// all-zero tables, and a chain of slides fed its own output.
func checkSlide(t *testing.T, name string, widths []int, slide slideFn) {
	t.Helper()
	for _, w := range widths {
		for _, kind := range []string{"random", "ones", "zeros"} {
			table, idx, _ := foldCase(kind, w, 16, uint64(w)*7+1)
			out := randWords(w, uint64(w)+2)
			for step := 0; step+1 < len(idx); step++ {
				a, b := idx[step], idx[step+1]
				if step == 3 {
					b = a
				}
				want := naiveSlide(out, table, a, b, w)
				if slide(out, table, a, b, w); !slices.Equal(out, want) {
					t.Fatalf("%s w=%d %s step %d: differs from XOR-then-rotate in %d bits",
						name, w, kind, step, HammingWords(out, want))
				}
			}
		}
	}
}

func TestSlideRowsMatchRotate(t *testing.T) {
	checkSlide(t, "dispatch", slideWidths, SlideRows)
	checkSlide(t, "portable", slideWidths, portableSlide)
}

func TestSlideRowsPanics(t *testing.T) {
	table := randWords(4*8, 1)
	out := make([]uint64, 8)
	for name, fn := range map[string]func(){
		"zero width":     func() { SlideRows(out, table, 0, 1, 0) },
		"short out":      func() { SlideRows(out[:7], table, 0, 1, 8) },
		"negative row":   func() { SlideRows(out, table, -1, 1, 8) },
		"row past table": func() { SlideRows(out, table, 0, 4, 8) },
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

// naiveDeposit is the tie rule one lane at a time: walking the lanes
// in order, the k-th lane set in mask takes bit k of stream.
func naiveDeposit(out, mask, stream []uint64) []uint64 {
	want := slices.Clone(out)
	k := 0
	for j := 0; j < 64*len(mask); j++ {
		if mask[j/64]>>(j%64)&1 == 1 {
			want[j/64] |= stream[k/64] >> (k % 64) & 1 << (j % 64)
			k++
		}
	}
	return want
}

// depositCase returns a w-word mask of the given kind and a stream:
//
//	zero     no lane set: nothing is deposited
//	ones     every lane set: the stream is copied whole
//	sparse   about one lane in 64, so stream words are crossed rarely
//	ties     about one lane in five, the tie density of a 16-row fold
//	mixed    words alternating empty, full and random, so the stream's
//	         word boundaries fall at every offset
func depositCase(kind string, w int, seed uint64) (mask, stream []uint64) {
	src := rng.New(seed)
	mask, stream = make([]uint64, w), randWords(w, seed+1)
	for c := range mask {
		switch kind {
		case "zero":
		case "ones":
			mask[c] = ^uint64(0)
		case "sparse":
			mask[c] = 1 << src.Intn(64)
		case "ties":
			for j := 0; j < 64; j++ {
				if src.Intn(5) == 0 {
					mask[c] |= 1 << j
				}
			}
		case "mixed":
			mask[c] = [3]uint64{0, ^uint64(0), src.Uint64()}[(c+int(seed))%3]
		default:
			panic("unknown deposit case " + kind)
		}
	}
	return mask, stream
}

// checkDeposit holds deposit to naiveDeposit on every depositCase at
// widths of one word, around a 64-byte block and at D = 8192, into an
// out that already holds bits (the deposit ORs).
func checkDeposit(t *testing.T, name string, deposit depositFn) {
	t.Helper()
	for _, w := range []int{1, 2, 3, 7, 8, 9, 128, 129} {
		for _, kind := range []string{"zero", "ones", "sparse", "ties", "mixed"} {
			for seed := uint64(0); seed < 3; seed++ {
				mask, stream := depositCase(kind, w, uint64(w)*31+seed)
				out := randWords(w, seed+9)
				for c := range out {
					out[c] &^= mask[c] // the lanes a seal deposits on are clear
				}
				want := naiveDeposit(out, mask, stream)
				if deposit(out, mask, stream); !slices.Equal(out, want) {
					t.Fatalf("%s w=%d %s seed %d: differs from the lane-at-a-time deposit in %d bits",
						name, w, kind, seed, HammingWords(out, want))
				}
			}
		}
	}
}

func TestDepositBitsMatchNaive(t *testing.T) {
	checkDeposit(t, "dispatch", DepositBits)
	checkDeposit(t, "portable", DepositBitsPortable)
}

func TestDepositBitsPanics(t *testing.T) {
	for name, fn := range map[string]depositFn{"dispatch": DepositBits, "portable": DepositBitsPortable} {
		for _, shape := range [][3]int{{2, 3, 3}, {3, 2, 3}, {3, 3, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with rows of %v words did not panic", name, shape)
					}
				}()
				fn(make([]uint64, shape[0]), make([]uint64, shape[1]), make([]uint64, shape[2]))
			}()
		}
	}
}

// benchSlide times one slide at the benchmark geometry (a 132-row table
// of 128-word rows, D = 8192 and Window 32).
func benchSlide(b *testing.B, name string, slide slideFn) {
	table, idx, _, _ := foldBenchCase()
	out := make([]uint64, 128)
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			slide(out, table, idx[i%32]%4, idx[i%32], 128)
		}
	})
}

// benchDeposit times one tie pass of a 16-row fold at D = 8192: about
// 12.5 tied lanes a word.
func benchDeposit(b *testing.B, name string, deposit depositFn) {
	mask, stream := depositCase("ties", 128, 1)
	out := make([]uint64, 128)
	b.Run(name+"/ties", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deposit(out, mask, stream)
		}
	})
}

// BenchmarkSlideRows and BenchmarkDepositBits time the dispatched
// kernel and the portable tier; kernel_amd64_test.go adds each
// assembly tier.
func BenchmarkSlideRows(b *testing.B) {
	benchSlide(b, "dispatch", SlideRows)
	benchSlide(b, "portable", portableSlide)
}

func BenchmarkDepositBits(b *testing.B) {
	benchDeposit(b, "dispatch", DepositBits)
	benchDeposit(b, "portable", DepositBitsPortable)
}

package hdc

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// sealBitwise is Seal as it was first written — one counter, one bit
// set, one Bool at a time: the definition the word-wise Seal and the row
// fold are both held to.
func sealBitwise(a *Acc, tieSeed uint64) *HV {
	h := NewHV(a.Dim())
	tie := rng.New(tieSeed)
	for i, c := range a.Counts() {
		if c > 0 || c == 0 && tie.Bool() {
			h.Words()[i/64] |= 1 << (i % 64)
		}
	}
	return h
}

func TestSealMatchesBitwiseDefinition(t *testing.T) {
	src := rng.New(40)
	for _, d := range []int{64, 1024, 8192} {
		for _, spread := range []int{1, 3, 40} { // ties on ≈ 1/1, 1/5, 1/79 of the lanes
			acc := NewAcc(d)
			counts := acc.Counts()
			for i := range counts {
				counts[i] = int32(src.Intn(2*spread-1) - spread + 1)
			}
			// The extremes a sign trick could get wrong.
			counts[0], counts[d-1] = -1<<31, 1<<31-1
			if got, want := acc.Seal(uint64(d)), sealBitwise(acc, uint64(d)); !got.Equal(want) {
				t.Errorf("D=%d spread=%d: word-wise Seal differs from the definition in %d bits", d, spread, got.Hamming(want))
			}
		}
	}
}

// bundleCase returns n hypervectors of dimension d: random; random in
// complementary pairs, so with n even every lane ties and the whole
// stream is consumed; or n copies of one vector, so none does.
func bundleCase(kind string, d, n int, src *rng.Source) []*HV {
	hs := make([]*HV, n)
	for i := range hs {
		switch {
		case kind == "pairs" && i%2 == 1:
			hs[i] = NewHV(d)
			for w, x := range hs[i-1].Words() {
				hs[i].Words()[w] = ^x
			}
		case kind == "equal" && i > 0:
			hs[i] = hs[0]
		default:
			hs[i] = RandomHV(d, src)
		}
	}
	return hs
}

// depositTiers are the tie passes a Rows can seal with: the dispatched
// bitvec.DepositBits (PDEP where the host has a fast one) and its
// portable tier, forced.
var depositTiers = []struct {
	name    string
	deposit func(out, mask, stream []uint64)
}{
	{"dispatch", bitvec.DepositBits},
	{"portable", bitvec.DepositBitsPortable},
}

// checkRowsEqualAcc holds the row fold, sealing with deposit, to the
// counters after every member: the members stored in the table's rows
// back to front, so the fold names its rows out of order.
func checkRowsEqualAcc(t *testing.T, d int, seed uint64, hs []*HV, deposit func(out, mask, stream []uint64)) {
	t.Helper()
	acc, rows := NewAcc(d), NewRows(NewTies(d, seed), len(hs))
	rows.deposit = deposit
	var idx []int32
	for i, h := range hs {
		acc.Add(h)
		rows.Put(len(hs)-1-i, h)
		idx = append(idx, int32(len(hs)-1-i))
		if got, want := rows.Seal(idx), acc.Seal(seed); !got.Equal(want) {
			t.Fatalf("D=%d n=%d: row fold differs from Acc.Seal in %d bits", d, i+1, got.Hamming(want))
		}
	}
}

// TestRowsMatchAcc is the equivalence the sealed build rests on: the
// row-fold bundle equals Acc.Add × n + Seal(seed) bit for bit, for every
// n from 1 past the vector tiers' 255-row limit on the dispatched tie
// pass and up to 64 — every even and odd count a bucket holds at the
// capacities builds use — on the portable one, at widths that are and
// are not whole kernel blocks.
func TestRowsMatchAcc(t *testing.T) {
	for _, tier := range depositTiers {
		name, n := "", 300
		if tier.name == "portable" {
			name, n = "portable/", 64
		}
		for _, d := range []int{64, 1024, 8192} {
			for _, kind := range []string{"random", "pairs", "equal"} {
				t.Run(fmt.Sprintf("%sD%d/%s", name, d, kind), func(t *testing.T) {
					checkRowsEqualAcc(t, d, uint64(d)^0x5ea1, bundleCase(kind, d, n, rng.New(uint64(d))), tier.deposit)
				})
			}
		}
	}
}

// TestRowsResetReuses stores round after round of members over the same
// rows, as a builder reuses a group's rows bucket after bucket, and
// seals each round and a subset of it named out of order.
func TestRowsResetReuses(t *testing.T) {
	src := rng.New(41)
	rows := NewRows(NewTies(testDim, 9), 6)
	for round := 0; round < 3; round++ {
		hs := bundleCase("random", testDim, 6, src)
		for i, h := range hs {
			rows.Put(i, h)
		}
		if want := Bundle(testDim, 9, hs...); !rows.Seal([]int32{0, 1, 2, 3, 4, 5}).Equal(want) {
			t.Fatalf("round %d: bundle of the rows stored over the last round's differs", round)
		}
		if want := Bundle(testDim, 9, hs[1], hs[4], hs[5], hs[2]); !rows.Seal([]int32{5, 1, 2, 4}).Equal(want) {
			t.Fatalf("round %d: bundle of four rows named out of order differs", round)
		}
	}
}

func TestRowsPanics(t *testing.T) {
	rows := NewRows(NewTies(128, 1), 2)
	for name, fn := range map[string]func(){
		"empty seal":   func() { rows.Seal(nil) },
		"row past end": func() { rows.Seal([]int32{0, 2}) },
		"wrong dim":    func() { rows.Put(0, NewHV(64)) },
		"put past end": func() { rows.Put(2, NewHV(128)) },
		"bad ties dim": func() { NewTies(100, 1) },
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

// FuzzBundleRows holds the row fold, on both tie-pass tiers, to the
// counters on arbitrary member
// bytes: dimension, member count (1 … 300), tie seed and content are the
// fuzzer's; odd bytes of the shape turn members into complements of
// their predecessor so that lanes tie.
func FuzzBundleRows(f *testing.F) {
	f.Add(uint8(0), uint16(2), uint64(1), []byte{0xff, 0x00})
	f.Add(uint8(1), uint16(16), uint64(0x5ea1), []byte("ACGTACGTTTGACCA"))
	f.Add(uint8(2), uint16(255), uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint16(299), uint64(9), []byte{})
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, seed uint64, raw []byte) {
		d := []int{64, 1024, 8192, 192}[d8%4]
		n := int(n16)%300 + 1
		if d == 8192 {
			n = n%64 + 1
		}
		hs := make([]*HV, n)
		for i := range hs {
			hs[i] = NewHV(d)
			for w := range hs[i].Words() {
				var b uint64
				for k := 0; k < 8 && len(raw) > 0; k++ {
					b = b<<8 | uint64(raw[(i*131+w*8+k)%len(raw)])
				}
				hs[i].Words()[w] = b ^ uint64(i*d+w)*0x9e3779b97f4a7c15
			}
			if i > 0 && len(raw) > 0 && raw[i%len(raw)]&1 == 1 {
				for w, x := range hs[i-1].Words() {
					hs[i].Words()[w] = ^x
				}
			}
		}
		for _, tier := range depositTiers {
			checkRowsEqualAcc(t, d, seed, hs, tier.deposit)
		}
	})
}

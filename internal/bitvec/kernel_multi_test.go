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

// TestHammingMultiMatchesSingle pins HammingMulti to HammingWords for
// every block width and for word counts that straddle the block and
// word-tail boundaries.
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

// TestHammingMultiEmptyBlock: a zero-query block is a no-op.
func TestHammingMultiEmptyBlock(t *testing.T) {
	HammingMulti(randWords(16, 3), nil, nil)
}

func TestHammingMultiPanics(t *testing.T) {
	row := randWords(16, 1)
	for name, fn := range map[string]func(){
		"length mismatch": func() { HammingMulti(row, [][]uint64{randWords(15, 2)}, make([]int, 1)) },
		"short dist":      func() { HammingMulti(row, multiQueries(2, 16, 7), make([]int, 1)) },
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

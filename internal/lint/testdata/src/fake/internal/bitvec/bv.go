// Package bitvec exercises the dimension-safety analyzer (the rule
// matches any package path ending in internal/bitvec or internal/hdc).
package bitvec

// HV is a minimal packed hypervector.
type HV struct {
	words []uint64
	n     int
}

func (v *HV) mustMatch(o *HV) {
	if v.n != o.n {
		panic("bitvec: length mismatch")
	}
}

// Xor combines raw words without any guard.
func (v *HV) Xor(a, b *HV) {
	for i := range v.words {
		v.words[i] = a.words[i] ^ b.words[i] // flagged
	}
}

// And guards with the checker helper first.
func (v *HV) And(a, b *HV) {
	a.mustMatch(b)
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Equal guards with the inline length comparison.
func (v *HV) Equal(o *HV) bool {
	if len(v.words) != len(o.words) {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Permute is guarded only by an aliasing test, which compares the
// operands as pointers and says nothing about their lengths.
func (v *HV) Permute(a *HV, k int) {
	if v == a {
		panic("bitvec: aliased rotation")
	}
	for i := range v.words {
		v.words[i] = a.words[(i+k)%len(v.words)] // flagged
	}
}

// Both delegates to a guarded operation; no raw access, no finding.
func (v *HV) Both(a, b *HV) {
	v.And(a, b)
}

// check validates a query block against a row, a checker helper in the
// shape the flat kernels use.
func check(row []uint64, qs [][]uint64) {
	for i := range qs {
		if len(qs[i]) != len(row) {
			panic("bitvec: length mismatch")
		}
	}
}

// ScanRows combines a row's raw words with a query block's without any
// guard.
func ScanRows(row []uint64, qs [][]uint64) int {
	d := 0
	for i := range qs {
		for w := range row {
			d += int(row[w] ^ qs[i][w]) // flagged
		}
	}
	return d
}

// ScanRowsGuarded runs the checker helper before touching either
// operand's words.
func ScanRowsGuarded(row []uint64, qs [][]uint64) int {
	check(row, qs)
	d := 0
	for i := range qs {
		for w := range row {
			d += int(row[w] ^ qs[i][w])
		}
	}
	return d
}

// ScanRowsInline guards with the inline length comparison.
func ScanRowsInline(row []uint64, qs [][]uint64) int {
	for i := range qs {
		if len(qs[i]) != len(row) {
			return -1
		}
	}
	d := 0
	for i := range qs {
		d += int(row[0] ^ qs[i][0])
	}
	return d
}

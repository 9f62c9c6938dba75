package cobs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// FuzzReadIndex feeds arbitrary bytes to the backend-dispatching
// loader: garbage, truncations, and cross-backend tag confusion must
// all be rejected with an error, never a panic, and the canonical
// cobs container must keep loading.
func FuzzReadIndex(f *testing.F) {
	x, err := New(Params{Window: 8, RowBits: 256, Hashes: 2})
	if err != nil {
		f.Fatal(err)
	}
	x.SetSealThreshold(2)
	for i := 0; i < 3; i++ {
		if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(64, rng.New(uint64(i+1)))}); err != nil {
			f.Fatal(err)
		}
	}
	x.Freeze()
	var buf bytes.Buffer
	if _, err := x.WriteToV3(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:63])
	f.Add([]byte{})
	// Tag confusion: the header hint flipped to the HDC tag and to an
	// unregistered tag.
	for _, tag := range []byte{0, 99} {
		mut := append([]byte(nil), valid...)
		mut[60] = tag
		f.Add(mut)
	}
	// Damaged meta and arena bytes (CRC coverage).
	for _, off := range []int{70, len(valid) - 8} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	// A column count the metadata bytes present cannot back.
	f.Add(forgedColumnCount(f))
	// Zero-segment container with a flipped header tag: no directory
	// entries exist, so only the meta section's leading tag word stands
	// between the flip and a foreign decoder.
	for _, tag := range []byte{0, 99} {
		mut := emptyContainer(f)
		mut[60] = tag
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := core.ReadIndex(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		// Anything accepted must be searchable without panicking.
		info := idx.Describe()
		if info.Backend == "" {
			t.Fatal("accepted index with no backend name")
		}
		if _, _, err := idx.Lookup(genome.Random(32, rng.New(7))); err != nil &&
			idx.NumRefs() > 0 && info.Backend == BackendName {
			t.Fatalf("accepted cobs index cannot search: %v", err)
		}
	})
}

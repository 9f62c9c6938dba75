package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// buildSerialized constructs a library over recs with the given params
// and worker count (0 = sequential Add) and returns its v3 file.
func buildSerialized(t *testing.T, p Params, recs []genome.Record, workers int) []byte {
	t.Helper()
	lib, err := NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	if workers == 0 {
		for _, rec := range recs {
			if err := lib.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := lib.AddConcurrent(recs, workers); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return writeV3Bytes(t, lib)
}

// TestBuildDeterminism is the regression guard behind biohdlint's
// determinism rule: building the same references with the same seed must
// produce byte-identical libraries — across repeated runs and across
// sequential vs concurrent construction — in both encoding modes. A
// stray global-rand call or map-iteration-order dependence anywhere in
// the build path shows up here as a byte diff. Each geometry also pins
// the SHA-256 of the v3 file PR 14 (the last commit with a second
// writer) wrote for it — for the approximate geometry, that file with
// its rows cut to their sketches, for the exact one, the file whose
// windows are routed by content (DESIGN §8.6) — so a change to the one
// writer that alters a byte of the format fails here. Params.Sealed is ignored: asking for raw
// counters builds the same sealed library, byte for byte.
func TestBuildDeterminism(t *testing.T) {
	src := rng.New(99)
	recs := []genome.Record{
		{ID: "chr1", Seq: genome.Random(600, src)},
		{ID: "chr2", Seq: genome.Random(450, src)},
		{ID: "chr3", Seq: genome.Random(333, src)},
	}
	for _, tc := range []struct {
		name   string
		p      Params
		sha256 string
	}{
		{"exact-sealed", Params{Dim: 1024, Window: 16, Seed: 5},
			"5efc5ee5608dac341d10f173cabe4baa3872f426bad946179e2308e6c92b127e"},
		// One window a row under a sketch: the rows are stored as their
		// sketches (whole rows hashed to aa24675e…9f9bcd).
		{"approx-sealed", Params{Dim: 1024, Window: 16, Approx: true, MutTolerance: 2, Seed: 5},
			"2a65dc99d16c66aa1f129e7f0efc543b00c99468b353b94edf9af5eb644518ce"},
		{"exact-sealed-false-ignored", Params{Dim: 1024, Window: 16, Sealed: false, Seed: 5},
			"5efc5ee5608dac341d10f173cabe4baa3872f426bad946179e2308e6c92b127e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := buildSerialized(t, tc.p, recs, 0)
			if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != tc.sha256 {
				t.Errorf("v3 bytes hash to %s, the parent wrote %s", got, tc.sha256)
			}
			if again := buildSerialized(t, tc.p, recs, 0); !bytes.Equal(first, again) {
				t.Error("two sequential builds with the same seed differ")
			}
			for _, workers := range []int{1, 4} {
				if conc := buildSerialized(t, tc.p, recs, workers); !bytes.Equal(first, conc) {
					t.Errorf("AddConcurrent(workers=%d) differs from sequential build", workers)
				}
			}
		})
	}
}

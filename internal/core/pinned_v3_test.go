package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// TestSavedBytesPinned saves the three row layouts a library can hold —
// one window a row (the rows are their sketches), whole rows with no
// sketch stage, and whole rows under a copied sketch plane — and holds
// each file's SHA-256 to a digest taken from a build whose probe planes
// were stored row-major. Each library has two segments whose row counts
// are not multiples of eight, so a writer that stores a plane's groups
// or tail rows in any other order fails here. Every file is then
// reopened on both tiers and must answer like the fresh build.
func TestSavedBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name                string
		p                   Params
		rowWords, sketch    int
		firstLen, secondLen int
		digest              string
	}{
		{"one-window-rows", Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 7301}, 16, 16, 300, 141,
			"c6d53c2b468004a48b902a6126baa70bf9445d5c4990ea0e1b6dd08a006e87fc"},
		{"whole-rows", Params{Dim: 8192, Window: 32, Seed: 7302}, 128, 128, 2100, 141,
			"1515966231fb2cc4b6596ed3218edef20fed866b83acf802834d2ec6d1ee556d"},
		{"sketch-plane", Params{Dim: 8192, Window: 32, Capacity: 16, Seed: 7303}, 128, 40, 2000, 141,
			"5e64f7aab2f0491ad11c6c2c56c5feb203314b1bf3136b6e7887ce2fb1d6eba2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib := mustLibrary(t, tc.p)
			src := rng.New(tc.p.Seed + 1)
			if err := lib.Add(genome.Record{ID: "ref-0", Seq: genome.Random(tc.firstLen, src)}); err != nil {
				t.Fatal(err)
			}
			lib.Freeze()
			lib.SetSealThreshold(1) // the next Add seals a segment of its own
			if err := lib.Add(genome.Record{ID: "ref-1", Seq: genome.Random(tc.secondLen, src)}); err != nil {
				t.Fatal(err)
			}
			info := lib.Describe()
			if info.RowWords != tc.rowWords || info.SketchWords != tc.sketch || lib.NumSegments() != 2 {
				t.Fatalf("%d-word rows, %d-word sketches, %d segments: want %d, %d and 2",
					info.RowWords, info.SketchWords, lib.NumSegments(), tc.rowWords, tc.sketch)
			}
			sn := hdcOf(lib.snap.Load())
			for k, seg := range sn.segs {
				if seg.NumBuckets()%8 == 0 {
					t.Fatalf("segment %d has %d rows: want a partial group", k, seg.NumBuckets())
				}
			}
			data := writeV3Bytes(t, lib)
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Fatalf("v3 file of %d bytes has SHA-256 %s, want %s", len(data), got, tc.digest)
			}
			path := filepath.Join(t.TempDir(), "lib.v3")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []LoadMode{LoadHeap, MapArena} {
				t.Run(fmt.Sprint("mode ", mode), func(t *testing.T) {
					got := openLib(t, path, mode)
					defer got.Close()
					assertLibrariesEquivalent(t, lib, got)
				})
			}
		})
	}
}

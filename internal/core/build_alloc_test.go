package core

import (
	"runtime"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// TestSealedBuildAllocCeiling keeps counters out of the sealed build,
// publish and compaction. A window of a sealed library costs its share
// of three packed rows — the closed bucket's, the arena's copy of it and
// at most one more in the sketch plane — plus its 8-byte WindowRef with
// append growth and the bucket and vector headers; the builder's table
// of open rows — C of them a routing group (DESIGN §8.6), or a C-row
// fold buffer doubled for growth where there is one group — is the only
// cost that does not scale with the windows. One hdc.Acc per bucket alone would be 4·D/C bytes a
// window, eight to ten times the ceiling at either geometry, so a counter
// path cannot come back under it (the counter build read ≈ 2 200 B a
// window at exact-C16 and ≈ 35 500 at approx-C1; the fold ≈ 200 and
// ≈ 2 600).
func TestSealedBuildAllocCeiling(t *testing.T) {
	const windows, small = 2048, 32
	for _, g := range buildBenchGeometries {
		t.Run(g.name, func(t *testing.T) {
			lib, err := NewLibrary(g.p)
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			src := rng.New(4242)
			record := func(id string, n int) genome.Record {
				return genome.Record{ID: id, Seq: genome.Random(n+g.p.Window-1, src)}
			}
			recs := []genome.Record{record("small", small), record("rest", windows-small), record("live", windows)}
			rowBytes, c := g.p.Dim/8, g.p.Capacity
			openRows := max(lib.groups, 2) * c
			ceiling := float64(3*rowBytes/c + 64)
			counters := float64(4 * g.p.Dim / c)
			if 8*ceiling > counters {
				t.Fatalf("ceiling %.0f B a window is not well under the %.0f of one counter array per bucket", ceiling, counters)
			}
			// phase runs fn, which bundles n windows, under the ceiling.
			phase := func(name string, n int, fn func()) {
				t.Helper()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				fn()
				runtime.ReadMemStats(&after)
				perWindow := float64(after.TotalAlloc-before.TotalAlloc-uint64(openRows*rowBytes)) / float64(n)
				t.Logf("%s: %.0f B a window; ceiling %.0f, counters alone %.0f", name, perWindow, ceiling, counters)
				if perWindow > ceiling {
					t.Errorf("%s allocated %.0f B a window, ceiling %.0f", name, perWindow, ceiling)
				}
			}
			mustAdd := func(rec genome.Record) {
				t.Helper()
				if err := lib.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
			phase("build", windows, func() {
				mustAdd(recs[0])
				mustAdd(recs[1])
				lib.Freeze()
			})
			// Sealed at once: a builder left active would be copied into
			// the view again when the compaction below publishes.
			lib.SetSealThreshold(1)
			phase("live ingest", windows, func() { mustAdd(recs[2]) })
			if err := lib.Remove(0); err != nil {
				t.Fatal(err)
			}
			phase("compaction", windows-small, func() {
				if n, err := lib.Compact(0); err != nil || n != 1 {
					t.Fatalf("Compact = %d, %v", n, err)
				}
			})
			if lib.NumWindows() != 2*windows-small {
				t.Fatalf("%d windows live, want %d", lib.NumWindows(), 2*windows-small)
			}
		})
	}
}

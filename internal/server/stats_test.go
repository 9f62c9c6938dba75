package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cobs"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Geometry of the consistency test: every reference has refLen bases,
// so at stride 1 every reference memorizes exactly refLen−statsWindow+1
// windows, and any reply describing one view has
// windows == references × windowsPerRef.
const (
	statsWindow = 16
	statsRefLen = 24
	statsAdds   = 2000
)

// TestStatsOneViewUnderIngest polls /v1/stats and the wire STATS frame
// while a writer keeps adding equal-length references. A reply whose
// counts came from two different views shows windows out of step with
// references.
func TestStatsOneViewUnderIngest(t *testing.T) {
	for _, backend := range []string{core.BackendHDC, cobs.BackendName} {
		t.Run(backend, func(t *testing.T) {
			src := rng.New(97)
			idx := statsIndex(t, backend, src)
			ts, cl := wirePairOver(t, idx)
			const perRef = statsRefLen - statsWindow + 1

			var done atomic.Bool
			var bad atomic.Int64
			check := func(via string, refs, windows int) {
				if windows != refs*perRef && bad.Add(1) == 1 {
					t.Errorf("%s: %d references but %d windows, want %d (%d a reference)",
						via, refs, windows, refs*perRef, perRef)
				}
			}
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(2)
				go func() {
					defer readers.Done()
					for !done.Load() {
						resp, err := http.Get(ts.URL + "/v1/stats")
						if err != nil {
							t.Error(err)
							return
						}
						var st wire.StatsResult
						err = json.NewDecoder(resp.Body).Decode(&st)
						resp.Body.Close()
						if err != nil {
							t.Error(err)
							return
						}
						check("/v1/stats", st.References, st.Windows)
					}
				}()
				go func() {
					defer readers.Done()
					for !done.Load() {
						st, err := cl.Stats(context.Background())
						if err != nil {
							t.Error(err)
							return
						}
						check("wire STATS", st.References, st.Windows)
					}
				}()
			}
			for i := 0; i < statsAdds && !t.Failed(); i++ {
				rec := genome.Record{ID: fmt.Sprintf("live-%d", i), Seq: genome.Random(statsRefLen, src)}
				if err := idx.Add(rec); err != nil {
					t.Error(err)
					break
				}
			}
			done.Store(true)
			readers.Wait()
			if n := bad.Load(); n > 0 {
				t.Errorf("%d stats replies mixed two views", n)
			}
		})
	}
}

// statsIndex builds a frozen index of one backend over a few
// statsRefLen-base references.
func statsIndex(t *testing.T, backend string, src *rng.Source) core.Index {
	t.Helper()
	var idx core.Index
	var err error
	if backend == core.BackendHDC {
		idx, err = core.NewLibrary(core.Params{Dim: 1024, Window: statsWindow, Seed: 98})
	} else {
		idx, err = cobs.New(cobs.Params{Window: statsWindow, RowBits: 512, Hashes: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := idx.Add(genome.Record{ID: fmt.Sprintf("ref-%d", i), Seq: genome.Random(statsRefLen, src)}); err != nil {
			t.Fatal(err)
		}
	}
	idx.Freeze()
	// A small active builder keeps each Add's publish cheap, so the
	// writer outpaces the readers.
	idx.SetSealThreshold(32)
	return idx
}

// statsKeys is every /v1/stats JSON key, which the wire STATS frame
// carries too.
var statsKeys = []string{
	"approx", "backend", "buckets", "capacity", "dim", "mappedBytes",
	"memoryBytes", "references", "residentBytes", "rowWords", "segments",
	"sketchBytes", "sketchPredictedSurvivorRatio", "sketchWords",
	"stride", "threshold", "tolerance", "tombstoneRatio", "window",
	"windows",
}

// indexSeries is every /metrics series built from the stats read.
var indexSeries = []string{
	"biohd_core_sketch_predicted_survivor_ratio",
	"biohd_index_info",
	"biohd_library_mapped_bytes",
	"biohd_library_memory_bytes",
	"biohd_library_resident_bytes",
	"biohd_library_segments",
	"biohd_library_tombstone_ratio",
}

// TestStatsNamesPinned holds /v1/stats, the wire STATS frame and the
// index gauges of /metrics to their published names: dashboards and
// clients key on them. The wire keys are read from the frame's raw
// payload, so a key no client struct knows is seen too.
func TestStatsNamesPinned(t *testing.T) {
	lib, _ := chr1Library(t, core.Params{Dim: 8192, Window: 32, Seed: 92})
	ts, addr := wireServers(t, lib)
	_, body := httpBody(t, ts.URL+"/v1/stats", nil)
	for via, data := range map[string][]byte{"/v1/stats": body, "wire STATS": rawStats(t, addr)} {
		var obj map[string]any
		if err := json.Unmarshal(data, &obj); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got, want := strings.Join(keys, " "), strings.Join(statsKeys, " "); got != want {
			t.Errorf("%s keys:\n got %s\nwant %s", via, got, want)
		}
	}

	_, body = httpBody(t, ts.URL+"/metrics", nil)
	seen := map[string]bool{}
	for name := range seriesNames(body) {
		if name == "biohd_index_info" || name == "biohd_core_sketch_predicted_survivor_ratio" ||
			strings.HasPrefix(name, "biohd_library_") {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(indexSeries, " "); got != want {
		t.Errorf("index series:\n got %s\nwant %s", got, want)
	}
}

// seriesNames is the set of sample names in a rendered /metrics body:
// each line's name, up to its labels or value.
func seriesNames(body []byte) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names[line[:strings.IndexAny(line, "{ ")]] = true
	}
	return names
}

// TestReadmeMetricsServed holds README to /metrics: every biohd_ name
// it mentions must be a series that a server with a wire listener on
// its registry renders — a histogram by its _count sample — so a
// renamed or dropped metric cannot leave the docs behind.
func TestReadmeMetricsServed(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := wirePair(t)
	_, body := httpBody(t, ts.URL+"/metrics", nil)
	served := seriesNames(body)
	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`biohd_[a-z0-9_]+`).FindAllString(string(readme), -1) {
		named[name] = true
	}
	if len(named) == 0 {
		t.Fatal("README names no biohd_ metric")
	}
	for name := range named {
		if !served[name] && !served[name+"_count"] {
			t.Errorf("README names %s, which /metrics does not serve", name)
		}
	}
}

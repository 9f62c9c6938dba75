package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// genRefs writes a small covid-like FASTA and returns its path.
func genRefs(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "refs.fa")
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "covid", "-n", "3", "-len", "1200", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunNoArgs(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if !strings.Contains(sb.String(), "usage:") {
		t.Fatal("usage not printed")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunHelp(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"help"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"gen", "build", "search", "classify", "experiment", "pim"} {
		if !strings.Contains(sb.String(), sub) {
			t.Fatalf("help missing %q", sub)
		}
	}
}

func TestGenToStdout(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "random", "-n", "2", "-len", "100"}, &sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), ">"); got != 2 {
		t.Fatalf("%d FASTA records", got)
	}
}

func TestGenBadKind(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "nope"}, &sb); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestGenReadsRequiresRef(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "reads"}, &sb); err == nil {
		t.Fatal("reads without -ref accepted")
	}
}

func TestBuildReportsLibrary(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-dim", "2048"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"library: 3 refs", "D=2048", "mode=exact", "threshold="} {
		if !strings.Contains(out, want) {
			t.Fatalf("build output missing %q:\n%s", want, out)
		}
	}
}

func TestBuildApproxShowsCalibration(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-tol", "3", "-capacity", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "calibration:") {
		t.Fatalf("approx build missing calibration:\n%s", sb.String())
	}
}

// TestBuildShowsStoredLayout: build names the width a row is stored at
// beside the sketch width, and the error targets beside the threshold.
// At the default geometry and tolerance 2 a row holds one window and is
// stored as its 16-word sketch; at capacity 16 an exact row is whole.
func TestBuildShowsStoredLayout(t *testing.T) {
	refs := genRefs(t)
	for _, tc := range []struct {
		args []string
		rows string
	}{
		{[]string{"-tol", "2"}, "rows of 16 words, sketch 16 words"},
		{[]string{"-capacity", "16"}, "rows of 128 words, sketch 40 words"},
	} {
		var sb strings.Builder
		if err := run(append([]string{"build", "-ref", refs}, tc.args...), &sb); err != nil {
			t.Fatal(err)
		}
		if out := sb.String(); !strings.Contains(out, tc.rows) || !strings.Contains(out, "alpha=0.001 beta=0.001") {
			t.Fatalf("build %v: want %q and the error targets in:\n%s", tc.args, tc.rows, out)
		}
	}
}

func TestBuildMissingRef(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"build"}, &sb); err == nil {
		t.Fatal("build without -ref accepted")
	}
	if err := run([]string{"build", "-ref", "/nonexistent.fa"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSearchFindsPlantedPattern(t *testing.T) {
	refs := genRefs(t)
	recs, err := readFASTAFile(refs)
	if err != nil {
		t.Fatal(err)
	}
	pat := recs[1].Seq.Slice(200, 232).String()
	var sb strings.Builder
	if err := run([]string{"search", "-ref", refs, "-pattern", pat, "-dim", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), recs[1].ID+":200") {
		t.Fatalf("planted pattern not reported:\n%s", sb.String())
	}
}

func TestSearchLongVoting(t *testing.T) {
	refs := genRefs(t)
	recs, err := readFASTAFile(refs)
	if err != nil {
		t.Fatal(err)
	}
	pat := recs[0].Seq.Slice(100, 420).String()
	var sb strings.Builder
	if err := run([]string{"search", "-ref", refs, "-pattern", pat, "-long", "-dim", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), recs[0].ID+" offset=100") {
		t.Fatalf("long query not mapped:\n%s", sb.String())
	}
}

func TestSearchBadPattern(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	if err := run([]string{"search", "-ref", refs, "-pattern", "ACGTN"}, &sb); err == nil {
		t.Fatal("invalid pattern accepted")
	}
	if err := run([]string{"search", "-ref", refs}, &sb); err == nil {
		t.Fatal("missing pattern accepted")
	}
}

func TestClassifyEndToEnd(t *testing.T) {
	refs := genRefs(t)
	readsPath := filepath.Join(t.TempDir(), "reads.fa")
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "reads", "-ref", refs, "-n", "4",
		"-len", "160", "-o", readsPath}, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	// minfrac 0.4: a read crossing a lineage indel legitimately splits
	// its votes across two alignment diagonals.
	if err := run([]string{"classify", "-ref", refs, "-reads", readsPath,
		"-dim", "4096", "-minfrac", "0.4"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# classified 4/4 reads") {
		t.Fatalf("classification incomplete:\n%s", sb.String())
	}
}

func TestExperimentRuns(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"experiment", "T1", "-scale", "0.05"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "== T1:") {
		t.Fatalf("experiment output missing table:\n%s", sb.String())
	}
}

func TestExperimentUnknownID(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"experiment", "Z9"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"experiment"}, &sb); err == nil {
		t.Fatal("missing id accepted")
	}
}

func TestPIMSimulation(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	if err := run([]string{"pim", "-ref", refs, "-queries", "4", "-dim", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chip:", "search:", "µs/query", "ops/query"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pim output missing %q:\n%s", want, out)
		}
	}
}

func TestPIMMissingRef(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"pim"}, &sb); err == nil {
		t.Fatal("pim without -ref accepted")
	}
}

func TestGenWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.fa")
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "random", "-n", "1", "-len", "50", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), ">rand-0000") {
		t.Fatalf("file contents: %q", string(data[:20]))
	}
}

func TestBuildSaveAndSearchFromLib(t *testing.T) {
	refs := genRefs(t)
	libPath := filepath.Join(t.TempDir(), "lib.bhd")
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-dim", "4096", "-o", libPath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "saved library to") {
		t.Fatalf("save not reported:\n%s", sb.String())
	}
	recs, err := readFASTAFile(refs)
	if err != nil {
		t.Fatal(err)
	}
	pat := recs[0].Seq.Slice(50, 82).String()
	sb.Reset()
	if err := run([]string{"search", "-lib", libPath, "-pattern", pat}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), recs[0].ID+":50") {
		t.Fatalf("search from saved library missed:\n%s", sb.String())
	}
}

func TestServeErrorPaths(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"serve"}, &sb); err == nil {
		t.Fatal("serve without inputs accepted")
	}
	if err := run([]string{"serve", "-lib", "/nonexistent.bhd"}, &sb); err == nil {
		t.Fatal("missing library accepted")
	}
	// A taken/invalid address must surface as an error, not a hang.
	refs := genRefs(t)
	if err := run([]string{"serve", "-ref", refs, "-addr", "256.0.0.1:0"}, &sb); err == nil {
		t.Fatal("invalid listen address accepted")
	}
}

func TestBuildMaskSubstitute(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "refs.fa")
	seq := strings.Repeat("ACGT", 30)
	if err := os.WriteFile(path, []byte(">x\n"+seq+"NNNN"+seq+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"build", "-ref", path, "-dim", "2048"}, &sb); err == nil {
		t.Fatal("default policy accepted Ns")
	}
	sb.Reset()
	if err := run([]string{"build", "-ref", path, "-dim", "2048", "-mask", "substitute"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "library: 1 refs") {
		t.Fatalf("masked build failed:\n%s", sb.String())
	}
	if err := run([]string{"build", "-ref", path, "-mask", "bogus"}, &sb); err == nil {
		t.Fatal("bogus mask policy accepted")
	}
}

func TestClassifyBothStrandsFlag(t *testing.T) {
	refs := genRefs(t)
	readsPath := filepath.Join(t.TempDir(), "reads.fa")
	var sb strings.Builder
	if err := run([]string{"gen", "-kind", "reads", "-ref", refs, "-n", "3",
		"-len", "160", "-err", "0", "-o", readsPath}, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"classify", "-ref", refs, "-reads", readsPath,
		"-dim", "4096", "-minfrac", "0.4", "-strands"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "strand=+") {
		t.Fatalf("strand column missing:\n%s", sb.String())
	}
}

func TestExperimentCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"experiment", "T1", "-scale", "0.05", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dataset,sequences,total-bases") {
		t.Fatalf("CSV header missing:\n%s", sb.String())
	}
}

func TestPIMReportsOccupancy(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	if err := run([]string{"pim", "-ref", refs, "-queries", "2", "-dim", "4096"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "occupancy:") {
		t.Fatalf("occupancy line missing:\n%s", sb.String())
	}
}

// TestBuildRepeatable: two builds of one FASTA write the same bytes.
func TestBuildRepeatable(t *testing.T) {
	refs := genRefs(t)
	libA := filepath.Join(t.TempDir(), "a.bhd")
	libB := filepath.Join(t.TempDir(), "b.bhd")
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-dim", "2048", "-o", libA}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-ref", refs, "-dim", "2048", "-o", libB}, &sb); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(libA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(libB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("a second build produced different library bytes")
	}
}

// TestCompactRemovesReference runs the offline lifecycle on both
// backends: compact -remove rewrites the saved file in place, and the
// file reopened on the heap and on the mapped tier no longer holds the
// removed reference while a kept reference's window still answers.
func TestCompactRemovesReference(t *testing.T) {
	refs := genRefs(t)
	recs, err := readFASTAFile(refs)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"hdc", "cobs"} {
		t.Run(backend, func(t *testing.T) {
			lib := filepath.Join(t.TempDir(), "refs.lib")
			var sb strings.Builder
			if err := run([]string{"build", "-ref", refs, "-backend", backend, "-o", lib}, &sb); err != nil {
				t.Fatal(err)
			}
			// The covid generator names its variants VAR-0000, ...
			sb.Reset()
			if err := run([]string{"compact", "-lib", lib, "-remove", "VAR-0000"}, &sb); err != nil {
				t.Fatalf("compact: %v\n%s", err, sb.String())
			}
			out := sb.String()
			if !strings.Contains(out, "removed VAR-0000") || !strings.Contains(out, "segments rewritten") {
				t.Fatalf("compact output missing lifecycle report:\n%s", out)
			}
			if !strings.Contains(out, "saved library to "+lib) {
				t.Fatalf("compact did not rewrite the library in place:\n%s", out)
			}
			for _, mode := range []core.LoadMode{core.LoadHeap, core.MapArena} {
				idx, err := core.OpenLibraryFile(lib, mode)
				if err != nil {
					t.Fatal(err)
				}
				info := idx.Describe()
				if info.Backend != backend || info.TombstoneRatio != 0 || idx.Ref(0).Seq != nil {
					t.Fatalf("mapped %v: reopened %s library, tombstone ratio %v, VAR-0000 live %v",
						idx.Mapped(), info.Backend, info.TombstoneRatio, idx.Ref(0).Seq != nil)
				}
				// Variants share most of their bases, so the kept
				// reference's window is looked for among the matches.
				w := info.Window
				ms, _, err := idx.Lookup(recs[1].Seq.Slice(50, 50+w))
				if err != nil {
					t.Fatal(err)
				}
				kept := false
				for _, m := range ms {
					kept = kept || m.Ref == 1 && m.Off == 50
					if m.Ref == 0 {
						t.Fatalf("mapped %v: the removed reference still answers: %+v", idx.Mapped(), m)
					}
				}
				if !kept {
					t.Fatalf("mapped %v: %s:50 lost by compaction: %+v", idx.Mapped(), recs[1].ID, ms)
				}
				if err := idx.Close(); err != nil {
					t.Fatal(err)
				}
			}
			sb.Reset()
			if err := run([]string{"compact", "-lib", lib, "-remove", "VAR-0000"}, &sb); err == nil {
				t.Fatal("removing an already-removed reference succeeded")
			}
		})
	}
}

func TestCompactValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"compact"}, &sb); err == nil {
		t.Fatal("compact without -lib accepted")
	}
	if err := run([]string{"compact", "-lib", "nope.lib", "-min-ratio", "2"}, &sb); err == nil {
		t.Fatal("out-of-range -min-ratio accepted")
	}
}

func TestBuildCOBSBackendSaveAndSearch(t *testing.T) {
	refs := genRefs(t)
	libPath := filepath.Join(t.TempDir(), "lib.cobs")
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-backend", "cobs", "-o", libPath}, &sb); err != nil {
		t.Fatal(err)
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "cobs backend") || !strings.Contains(outStr, "saved library to") {
		t.Fatalf("cobs build output:\n%s", outStr)
	}
	recs, err := readFASTAFile(refs)
	if err != nil {
		t.Fatal(err)
	}
	// Search and classify straight from the saved cobs container: the
	// backend-tagged v3 file dispatches to the bit-sliced loader.
	pat := recs[0].Seq.Slice(50, 82).String()
	sb.Reset()
	if err := run([]string{"search", "-lib", libPath, "-pattern", pat}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), recs[0].ID+":50") {
		t.Fatalf("search from cobs library missed:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"search", "-lib", libPath, "-pattern", recs[1].Seq.Slice(100, 300).String(), "-long"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), recs[1].ID) {
		t.Fatalf("long search from cobs library missed:\n%s", sb.String())
	}
}

func TestBuildUnknownBackend(t *testing.T) {
	refs := genRefs(t)
	var sb strings.Builder
	err := run([]string{"build", "-ref", refs, "-backend", "btree"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "registered: hdc, cobs") {
		t.Fatalf("unknown backend: %v", err)
	}
}

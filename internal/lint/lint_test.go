package lint

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixture loads testdata/src/fake once; the packages are shared by all
// tests in this file (analyzers never mutate them).
var fixture = sync.OnceValues(func() ([]*Package, error) {
	return LoadWithTags(filepath.Join("testdata", "src", "fake"), nil)
})

// fixtureDiags runs the full analyzer set over the fixture module.
func fixtureDiags(t *testing.T) []Diagnostic {
	t.Helper()
	pkgs, err := fixture()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if p.TypeErr != nil {
			t.Fatalf("package %s failed to type-check: %v", p.Path, p.TypeErr)
		}
	}
	return Run(pkgs, All())
}

// findingsIn filters diagnostics of one rule within one file basename.
func findingsIn(diags []Diagnostic, rule, file string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Rule == rule && filepath.Base(d.Pos.Filename) == file {
			out = append(out, d)
		}
	}
	return out
}

// requireFinding asserts exactly one diagnostic of rule in file whose
// message contains want.
func requireFinding(t *testing.T, diags []Diagnostic, rule, file, want string) {
	t.Helper()
	var hits []Diagnostic
	for _, d := range findingsIn(diags, rule, file) {
		if strings.Contains(d.Message, want) {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Errorf("want exactly 1 [%s] finding in %s containing %q, got %d:\n%s",
			rule, file, want, len(hits), formatDiags(findingsIn(diags, rule, file)))
	}
}

func formatDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

func TestDeterminism(t *testing.T) {
	diags := fixtureDiags(t)
	requireFinding(t, diags, "determinism", "det.go", "import of math/rand")
	requireFinding(t, diags, "determinism", "det.go", "append to out")
	requireFinding(t, diags, "determinism", "det.go", "+= on sum")
	if got := findingsIn(diags, "determinism", "det.go"); len(got) != 3 {
		t.Errorf("det.go: want 3 determinism findings "+
			"(CollectSorted and SumInts must pass), got %d:\n%s",
			len(got), formatDiags(got))
	}
	if got := findingsIn(diags, "determinism", "rng.go"); len(got) != 0 {
		t.Errorf("internal/rng must be exempt, got:\n%s", formatDiags(got))
	}
}

func TestPurity(t *testing.T) {
	diags := fixtureDiags(t)
	requireFinding(t, diags, "purity", "pure.go", "fmt.Println")
	requireFinding(t, diags, "purity", "pure.go", "log.Fatalf")
	requireFinding(t, diags, "purity", "pure.go", "os.Exit")
	requireFinding(t, diags, "purity", "pure.go", "function with an error result")
	requireFinding(t, diags, "purity", "pure.go", "panicking with an error value")
	if got := findingsIn(diags, "purity", "pure.go"); len(got) != 5 {
		t.Errorf("pure.go: want 5 purity findings "+
			"(Index guard and MustParse must pass), got %d:\n%s",
			len(got), formatDiags(got))
	}
	if got := findingsIn(diags, "purity", "main.go"); len(got) != 0 {
		t.Errorf("main packages must be exempt, got:\n%s", formatDiags(got))
	}
}

func TestErrcheck(t *testing.T) {
	diags := fixtureDiags(t)
	got := findingsIn(diags, "errcheck", "errs.go")
	// Drop's bare os.Remove and Malformed's (whose suppression lacks a
	// reason and is therefore void) — Suppressed's discard must not
	// appear.
	if len(got) != 2 {
		t.Errorf("errs.go: want 2 errcheck findings, got %d:\n%s",
			len(got), formatDiags(got))
	}
	requireFinding(t, diags, "suppress", "errs.go", "malformed suppression")
}

func TestConcurrency(t *testing.T) {
	diags := fixtureDiags(t)
	requireFinding(t, diags, "concurrency", "conc.go", "no join in Detached")
	requireFinding(t, diags, "concurrency", "conc.go", "without ReadHeaderTimeout")
	if got := findingsIn(diags, "concurrency", "conc.go"); len(got) != 2 {
		t.Errorf("conc.go: want 2 concurrency findings "+
			"(Joined, ChannelJoined, and GuardedServer must pass), got %d:\n%s",
			len(got), formatDiags(got))
	}
}

func TestDimSafety(t *testing.T) {
	diags := fixtureDiags(t)
	requireFinding(t, diags, "dimsafety", "bv.go", "Xor combines the raw storage")
	requireFinding(t, diags, "dimsafety", "bv.go", "ScanRows combines the raw storage")
	requireFinding(t, diags, "dimsafety", "bv.go", "Permute combines the raw storage")
	if got := findingsIn(diags, "dimsafety", "bv.go"); len(got) != 3 {
		t.Errorf("bv.go: want 3 dimsafety findings "+
			"(And, Equal, Both, ScanRowsGuarded, ScanRowsInline must pass), got %d:\n%s",
			len(got), formatDiags(got))
	}
}

func TestSnapshotSafety(t *testing.T) {
	diags := fixtureDiags(t)
	requireFinding(t, diags, "snapshotsafety", "library.go", "storage .bkts")
	requireFinding(t, diags, "snapshotsafety", "library.go", "storage .arena")
	requireFinding(t, diags, "snapshotsafety", "library.go", "storage .sealedSegs outside engine.go")
	requireFinding(t, diags, "snapshotsafety", "library.go", "storage .members outside engine.go")
	// RawBuckets, RawArena, MasterAlias and ActiveMembers are the only
	// findings: the accessor-using functions pass, and Suppressed's
	// access is suppressed with a reason.
	if got := findingsIn(diags, "snapshotsafety", "library.go"); len(got) != 4 {
		t.Errorf("library.go: want 4 snapshotsafety findings "+
			"(BucketCount, FirstRow, and Suppressed must pass), got %d:\n%s",
			len(got), formatDiags(got))
	}
	// The storage owners themselves are exempt wholesale.
	for _, owner := range []string{"segment.go", "engine.go"} {
		if got := findingsIn(diags, "snapshotsafety", owner); len(got) != 0 {
			t.Errorf("%s must be exempt, got:\n%s", owner, formatDiags(got))
		}
	}
}

func TestDiagnosticsSortedAndFormatted(t *testing.T) {
	diags := fixtureDiags(t)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics not sorted: %s before %s", a, b)
		}
	}
	s := diags[0].String()
	if !strings.Contains(s, ".go:") || !strings.Contains(s, ": [") {
		t.Fatalf("unexpected diagnostic format %q", s)
	}
}

func TestSelectiveRules(t *testing.T) {
	pkgs, err := fixture()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	only := Run(pkgs, []Analyzer{DimSafety{}})
	for _, d := range only {
		if d.Rule != "dimsafety" && d.Rule != "suppress" {
			t.Fatalf("rule subset leaked finding %s", d)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, mod, err := FindModuleRoot(filepath.Join("testdata", "src", "fake", "internal", "det"))
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	if mod != "fake" {
		t.Fatalf("module path = %q, want fake", mod)
	}
	if filepath.Base(root) != "fake" {
		t.Fatalf("root = %q, want .../fake", root)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureDir is the lint package's fake module, reused here so the CLI
// is tested against known findings.
var fixtureDir = filepath.Join("..", "..", "internal", "lint", "testdata", "src", "fake")

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestListRules(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errOut.String())
	}
	for _, rule := range []string{"determinism", "purity", "errcheck", "concurrency", "dimsafety", "snapshotsafety"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %q:\n%s", rule, out.String())
		}
	}
}

func TestUnknownRule(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-rules", "nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown rule") {
		t.Fatalf("stderr missing explanation: %s", errOut.String())
	}
}

func TestFindingsFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fixture lint in -short mode")
	}
	code, out, errOut := runCLI(t, fixtureDir+"/...")
	if code != 1 {
		t.Fatalf("fixture exit = %d, want 1; stderr: %s", code, errOut)
	}
	for _, rule := range []string{"[determinism]", "[hotpath]", "[snapshotatomic]"} {
		if !strings.Contains(out, rule) {
			t.Errorf("fixture findings missing %s:\n%s", rule, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, ".go:") || !strings.Contains(line, ": [") {
			t.Errorf("malformed finding line %q", line)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fixture lint in -short mode")
	}
	code, out, errOut := runCLI(t, "-json", "-rules", "snapshotatomic", fixtureDir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	seen := 0
	for _, f := range findings {
		if f.Rule == "suppress" {
			// Suppression hygiene reports alongside any rule subset.
			continue
		}
		seen++
		if f.Rule != "snapshotatomic" {
			t.Fatalf("rule subset leaked %q", f.Rule)
		}
		if filepath.IsAbs(f.File) || !strings.HasSuffix(f.File, "pub.go") {
			t.Fatalf("file must be repo-relative, got %q", f.File)
		}
		if f.Line <= 0 || f.Message == "" {
			t.Fatalf("incomplete finding: %+v", f)
		}
	}
	if seen == 0 {
		t.Fatal("want snapshotatomic findings in JSON output")
	}
}

package lint

import "testing"

// TestRepoIsLintClean runs every analyzer over this repository's own
// source, making biohdlint a tier-1 gate: any new violation fails
// `go test ./...`, not just the optional CLI run. Fix the finding or
// add a `//lint:ignore <rule> <reason>` suppression at the site.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	pkgs, err := LoadWithTags(".", nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		if p.TypeErr != nil {
			t.Errorf("%s: incomplete type information: %v", p.Path, p.TypeErr)
		}
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d biohdlint finding(s); run `go run ./cmd/biohdlint ./...` locally", len(diags))
	}
}

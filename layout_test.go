package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// designLayout returns DESIGN.md §5's tree block and its dependency-order
// paragraph.
func designLayout(t *testing.T) (tree, order string) {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "## 5. Package layout\n")
	if !ok {
		t.Fatal("DESIGN.md has no §5 Package layout")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, tree, _ = strings.Cut(sec, "```\n")
	tree, order, _ = strings.Cut(tree, "```\n")
	_, order, _ = strings.Cut(order, "):")
	order, _, _ = strings.Cut(order, ". ")
	return tree, order
}

// subdirs lists the directories directly under dir.
func subdirs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && e.Name() != "testdata" {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestDesignLayoutMatchesTree holds DESIGN.md §5 to the module: its tree
// names every directory under internal/ and cmd/ and no directory that
// is gone, and in its dependency order every internal package imports
// only packages of earlier groups.
func TestDesignLayoutMatchesTree(t *testing.T) {
	tree, order := designLayout(t)
	named := map[string]bool{}
	for _, tok := range strings.Fields(tree) {
		if strings.HasSuffix(tok, "/") {
			named[tok] = true
		}
	}
	want := map[string]bool{}
	for _, d := range subdirs(t, "internal") {
		want[d+"/"] = true
	}
	for _, d := range subdirs(t, "cmd") {
		want["cmd/"+d+"/"] = true
	}
	for d := range want {
		if !named[d] {
			t.Errorf("DESIGN.md §5 does not list %s", d)
		}
	}
	for d := range named {
		_, errRoot := os.Stat(d)
		_, errInternal := os.Stat(filepath.Join("internal", d))
		if errRoot != nil && errInternal != nil {
			t.Errorf("DESIGN.md §5 lists %s, which does not exist", d)
		}
	}

	group := map[string]int{}
	for i, g := range strings.Split(order, "→") {
		for _, p := range strings.Split(g, ",") {
			group[strings.TrimSpace(p)] = i
		}
	}
	for _, d := range subdirs(t, "internal") {
		own, ok := group[d]
		if !ok {
			t.Errorf("DESIGN.md §5 dependency order leaves out %s", d)
			continue
		}
		for _, imp := range internalImports(t, filepath.Join("internal", d)) {
			if group[imp] >= own {
				t.Errorf("DESIGN.md §5 dependency order puts %s at or after %s, which imports it", imp, d)
			}
		}
	}
}

// internalImports returns the internal packages dir's non-test files
// import, by name.
func internalImports(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var deps []string
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range af.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if name, ok := strings.CutPrefix(p, "repro/internal/"); ok {
				deps = append(deps, name)
			}
		}
	}
	return deps
}

// TestReadmePackageGuideMatchesTree holds README's "## Package guide"
// table to the module: a row names every directory under internal/,
// and no row names one that is gone.
func TestReadmePackageGuideMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "## Package guide\n")
	if !ok {
		t.Fatal("README.md has no Package guide")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	named := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			for _, f := range strings.FieldsFunc(cells[1], func(r rune) bool { return r == '`' || r == ',' || r == ' ' }) {
				if d, ok := strings.CutPrefix(f, "internal/"); ok {
					named[d] = true
				}
			}
		}
	}
	for _, d := range subdirs(t, "internal") {
		if !named[d] {
			t.Errorf("README.md Package guide has no row for internal/%s", d)
		}
		delete(named, d)
	}
	for d := range named {
		t.Errorf("README.md Package guide names internal/%s, which does not exist", d)
	}
}

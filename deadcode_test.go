//go:build deadcode

package repro

// The linker is the call-graph check: a function no program contains
// is reached by nothing but tests. TestEveryFunctionLinked builds every
// main package of the module, under the default tags and under purego,
// and fails on a declared function that no binary links unless
// testdata/deadcode.allow names it with a reason — and on an allow
// entry that is linked again or no longer declared, so the list only
// shrinks. Run it with `make deadcode`; tier 1 does not build it.

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// maxAllowed caps testdata/deadcode.allow: an unlinked function stays
// only for a reason from the closed list in the file's header.
const maxAllowed = 20

var tagSets = [][]string{nil, {"purego"}}

func TestEveryFunctionLinked(t *testing.T) {
	declared := map[string]string{} // symbol → file:line
	mains := map[string]bool{}      // import paths of main packages
	for _, tags := range tagSets {
		pkgs, err := lint.LoadWithTags(".", tags)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if p.Name == "main" {
				mains[p.Path] = true
			}
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
						continue
					}
					declared[funcSymbol(p.Path, fd)] = p.Fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	if len(mains) == 0 {
		t.Fatal("no main packages loaded")
	}

	linked := map[string]bool{}
	dir := t.TempDir()
	for _, tags := range tagSets {
		for m := range mains {
			for _, sym := range linkedSymbols(t, dir, m, tags) {
				linked[sym] = true
			}
		}
	}

	allowed := readAllow(t, filepath.Join("testdata", "deadcode.allow"))
	if len(allowed) > maxAllowed {
		t.Errorf("testdata/deadcode.allow has %d entries, more than %d", len(allowed), maxAllowed)
	}
	var unlinked []string
	for sym, pos := range declared {
		if !linked[sym] && !allowed[sym] {
			unlinked = append(unlinked, fmt.Sprintf("%s: %s", pos, sym))
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no binary links %s: delete it, move it into the tests that use it, or allow it with a reason", u)
	}
	for sym := range allowed {
		switch {
		case declared[sym] == "":
			t.Errorf("testdata/deadcode.allow: %s is not declared (stale entry)", sym)
		case linked[sym]:
			t.Errorf("testdata/deadcode.allow: %s is linked (stale entry)", sym)
		}
	}
}

// funcSymbol names fd the way the linker's symbol table does:
// "path.F", "path.T.M" for a value receiver, "path.(*T).M" for a
// pointer receiver. The module declares no generic functions, whose
// symbols would carry instantiation brackets.
func funcSymbol(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return path + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		return path + ".(*" + star.X.(*ast.Ident).Name + ")." + fd.Name.Name
	}
	return path + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// linkedSymbols builds the main package pkg with inlining off (so a
// function called only from inlined sites still has a symbol) and
// returns its text symbols, with the binary's "main." prefix replaced
// by pkg and ".abi0" assembly suffixes stripped.
func linkedSymbols(t *testing.T, dir, pkg string, tags []string) []string {
	t.Helper()
	exe := filepath.Join(dir, strings.ReplaceAll(pkg, "/", "_")+strings.Join(tags, "_"))
	build := exec.Command("go", "build", "-gcflags=all=-l", "-tags", strings.Join(tags, ","), "-o", exe, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s (tags %v): %v\n%s", pkg, tags, err, out)
	}
	out, err := exec.Command("go", "tool", "nm", exe).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", exe, err)
	}
	var syms []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[len(f)-2] != "T" && f[len(f)-2] != "t") {
			continue
		}
		name := strings.TrimSuffix(f[len(f)-1], ".abi0")
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = pkg + "." + rest
		}
		syms = append(syms, name)
	}
	return syms
}

// readAllow parses the allow file: one symbol per line followed by its
// reason; blank lines and lines starting with # are skipped.
func readAllow(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, i+1, sym)
		}
		if allowed[sym] {
			t.Errorf("%s:%d: %s is listed twice", path, i+1, sym)
		}
		allowed[sym] = true
	}
	return allowed
}

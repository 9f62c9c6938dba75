package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FindModuleRoot walks upward from dir to the directory containing
// go.mod and returns that directory and the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := modulePathFrom(data)
			if mp == "" {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, mp, nil
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// modulePathFrom extracts the module path from go.mod content.
func modulePathFrom(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadWithTags parses and type-checks every non-test package under the
// module rooted at root, with the given build tags in force beside the
// default ones, so the module can be analyzed as an alternative build
// sees it — e.g. tags ["purego"] selects the portable kernel fallbacks
// instead of the assembly dispatch stubs. File selection (//go:build
// lines and filename suffixes) honors the tags. Test files (_test.go)
// are excluded: the analyzers' rules exempt test code, and excluding it
// keeps loading self-contained (external test packages need no special
// casing).
//
// Packages are type-checked in dependency order so intra-module imports
// resolve against already-checked packages; standard-library imports are
// type-checked from source via go/importer. A package with parse or
// type errors is still returned (with TypeErr set) so syntactic rules
// can run; only unreadable directories abort the load.
func LoadWithTags(root string, tags []string) ([]*Package, error) {
	root, modPath, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	bctx := build.Default
	bctx.BuildTags = append(append([]string{}, bctx.BuildTags...), tags...)
	fset := token.NewFileSet()
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	type rawPkg struct {
		pkg     *Package
		imports map[string]bool // intra-module imports
	}
	raws := map[string]*rawPkg{} // keyed by import path
	var order []string
	for _, dir := range dirs {
		files, perr := parseDir(&bctx, fset, dir)
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{
			pkg: &Package{
				Path:    path,
				Name:    files[0].Name.Name,
				Files:   files,
				Fset:    fset,
				TypeErr: perr,
			},
			imports: map[string]bool{},
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					rp.imports[ip] = true
				}
			}
		}
		raws[path] = rp
		order = append(order, path)
	}
	sort.Strings(order)

	// Topological order over intra-module imports (Kahn). Import cycles
	// are a compile error anyway; any residue is appended at the end so
	// every package is still analyzed.
	indeg := map[string]int{}
	for _, p := range order {
		for dep := range raws[p].imports {
			if _, ok := raws[dep]; ok {
				indeg[p]++
			}
		}
	}
	var topo []string
	queue := []string{}
	for _, p := range order {
		if indeg[p] == 0 {
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		sort.Strings(queue)
		p := queue[0]
		queue = queue[1:]
		topo = append(topo, p)
		for _, q := range order {
			if raws[q].imports[p] {
				indeg[q]--
				if indeg[q] == 0 {
					queue = append(queue, q)
				}
			}
		}
	}
	if len(topo) < len(order) {
		seen := map[string]bool{}
		for _, p := range topo {
			seen[p] = true
		}
		for _, p := range order {
			if !seen[p] {
				topo = append(topo, p)
			}
		}
	}

	// Type check in dependency order.
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := &moduleImporter{std: std, module: checked}
	var pkgs []*Package
	for _, path := range topo {
		rp := raws[path]
		pkg := rp.pkg
		pkg.Info = newInfo()
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // collect just the first, keep going
		}
		tp, err := conf.Check(path, fset, pkg.Files, pkg.Info)
		pkg.Types = tp
		if err != nil && pkg.TypeErr == nil {
			pkg.TypeErr = err
		}
		if tp != nil {
			checked[path] = tp
		}
		pkgs = append(pkgs, pkg)
	}
	// Report in path order regardless of check order.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// moduleImporter serves intra-module packages from the already-checked
// set and defers everything else to the standard-library importer.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// packageDirs lists directories under root that contain at least one
// non-test .go file, skipping hidden directories, testdata, and vendor.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// parseDir parses the non-test .go files of one directory that the
// build context selects. Build constraints (//go:build lines and
// filename suffixes like _amd64.go) are honored via go/build, so
// platform-alternative files declaring the same names — e.g. an
// assembly dispatch stub and its portable fallback — do not collide
// during type checking. The returned error is the first parse error;
// files that parse are still returned.
func parseDir(bctx *build.Context, fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var firstErr error
	var names []string
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		if ok, err := bctx.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if f != nil {
			files = append(files, f)
		}
	}
	return files, firstErr
}

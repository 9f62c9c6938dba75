// Package lint is biohdlint's analysis engine: a dependency-free
// static-analysis framework built on the standard library's go/ast,
// go/parser and go/types. It loads every package in the module and runs
// a set of repo-specific analyzers that guard the invariants BioHD's
// reproduction claims depend on:
//
//	determinism  no math/rand or map-iteration-order-dependent
//	             accumulation outside internal/rng and tests
//	purity       no prints/exits in library code; error paths return
//	             errors instead of panicking
//	errcheck     no silently discarded error return values
//	concurrency  goroutines join in the function that launches them;
//	             http.Server literals set ReadHeaderTimeout
//	dimsafety    bitvec/hdc binary kernels guard operand lengths before
//	             touching raw storage
//	snapshotsafety  index backends touch raw segment storage only in
//	             segment.go and snapshot.go, and the segment engine's
//	             master list only in engine.go, so published snapshots
//	             are provably immutable
//
// On top of the per-package rules, a static call graph over the whole
// module (see callgraph.go) powers two whole-program analyzers:
//
//	hotpath      functions annotated //biohd:hotpath must not reach an
//	             allocation site — the steady-state probe path is
//	             provably allocation-free, not just alloc-tested
//	snapshotatomic  snapshot atomic.Pointer fields are published only
//	             under the owner's mutex, readers never write snapshot
//	             state, and atomic values are never copied or mixed
//	             with plain access
//
// A diagnostic can be suppressed with a comment on the offending line
// or the line directly above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a suppression without one is itself
// reported, and so is a stale suppression — one that no longer matches
// any finding of an analyzer that ran.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Name is the package name ("core", "main").
	Name string
	// Files are the parsed non-test sources, in filename order.
	Files []*ast.File
	// Fset positions all files of the module.
	Fset *token.FileSet
	// Types is the checked package; nil when type checking failed.
	Types *types.Package
	// Info holds type information for the files. Its maps are always
	// non-nil but may be incomplete when TypeErr is set.
	Info *types.Info
	// TypeErr records the first type-checking error, if any. Analyzers
	// must degrade to syntactic checks when set.
	TypeErr error
}

// IsTypeOK reports whether full type information is available.
func (p *Package) IsTypeOK() bool { return p.TypeErr == nil && p.Types != nil }

// TypeOf returns the type of e, or nil when unknown.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Package) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// An Analyzer is one named rule. Concrete analyzers implement either
// PackageAnalyzer (independent per-package checks) or
// WholeProgramAnalyzer (checks needing the cross-package call graph).
type Analyzer interface {
	// Name is the rule identifier used in output and suppressions.
	Name() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
}

// A PackageAnalyzer inspects one package at a time.
type PackageAnalyzer interface {
	Analyzer
	// Run analyzes pkg and returns its findings.
	Run(pkg *Package) []Diagnostic
}

// A WholeProgramAnalyzer inspects the loaded program as a unit, with
// the call graph available.
type WholeProgramAnalyzer interface {
	Analyzer
	// RunProgram analyzes the whole program and returns its findings.
	RunProgram(prog *Program) []Diagnostic
}

// Program is the loaded module presented to whole-program analyzers.
type Program struct {
	// Pkgs are the loaded packages in path order.
	Pkgs []*Package

	graph *CallGraph
}

// Graph returns the program's call graph, resolving it on first use.
func (p *Program) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = NewCallGraph(p.Pkgs)
	}
	return p.graph
}

// All returns the full analyzer set in reporting order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		Purity{},
		Errcheck{},
		Concurrency{},
		DimSafety{},
		SnapshotSafety{},
		Hotpath{},
		SnapshotAtomic{},
	}
}

// Run applies every analyzer — package analyzers to every package,
// whole-program analyzers to the program once — filters suppressed
// findings, and returns the survivors sorted by position. Malformed
// suppressions (no rule, or no reason) are reported under the
// "suppress" pseudo-rule, and so are stale suppressions: ones naming a
// rule that ran but matching none of its findings.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	sup := suppressions{}
	var out []Diagnostic
	for _, pkg := range pkgs {
		bad := collectSuppressions(pkg, sup)
		out = append(out, bad...)
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		if pa, ok := a.(PackageAnalyzer); ok {
			for _, pkg := range pkgs {
				raw = append(raw, pa.Run(pkg)...)
			}
		}
	}
	prog := &Program{Pkgs: pkgs}
	for _, a := range analyzers {
		if wa, ok := a.(WholeProgramAnalyzer); ok {
			raw = append(raw, wa.RunProgram(prog)...)
		}
	}
	used := map[suppressionKey]bool{}
	for _, d := range raw {
		if k, ok := sup.match(d); ok {
			used[k] = true
			continue
		}
		out = append(out, d)
	}
	// A suppression for a rule that ran but matched nothing is dead
	// weight that silently masks future findings at that line.
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	for k := range sup {
		if ran[k.rule] && !used[k] {
			out = append(out, Diagnostic{
				Pos:  token.Position{Filename: k.file, Line: k.line},
				Rule: "suppress",
				Message: "stale suppression: no [" + k.rule + "] finding on this " +
					"or the next line; delete it",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "lint:ignore"

// suppressionKey identifies the lines a suppression covers for a rule.
type suppressionKey struct {
	file string
	line int
	rule string
}

type suppressions map[suppressionKey]bool

// match returns the suppression key covering d — on its own line or the
// line directly above it — and whether one exists.
func (s suppressions) match(d Diagnostic) (suppressionKey, bool) {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		k := suppressionKey{d.Pos.Filename, line, d.Rule}
		if s[k] {
			return k, true
		}
	}
	return suppressionKey{}, false
}

// collectSuppressions scans every comment in the package for
// "//lint:ignore rule reason" markers, adding them to sup. Markers
// missing the rule or the reason are returned as diagnostics instead of
// being honored.
func collectSuppressions(pkg *Package, sup suppressions) []Diagnostic {
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "suppress",
						Message: "malformed suppression: want " +
							"//lint:ignore <rule> <reason>",
					})
					continue
				}
				sup[suppressionKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return bad
}

// --- //biohd: annotations ---

// annPrefix introduces a biohd directive comment on a declaration.
const annPrefix = "//biohd:"

// Annotation is one //biohd:<verb> [args] directive parsed from a
// function's doc comment. The hotpath analyzer defines the verbs:
//
//	//biohd:hotpath            the function roots a hot-path walk
//	//biohd:coldstart <reason> the walk stops here (reviewed cold-start
//	                           boundary: pool-miss construction, result
//	                           assembly); the reason is mandatory
type Annotation struct {
	// Verb is the word after "//biohd:".
	Verb string
	// Arg is the rest of the line, trimmed (the reason for coldstart).
	Arg string
	// Pos locates the directive comment.
	Pos token.Pos
}

// parseAnnotations extracts //biohd: directives from a doc comment.
// Directive comments are exact-prefix (no space after //), matching
// go:build convention.
func parseAnnotations(doc *ast.CommentGroup) []Annotation {
	if doc == nil {
		return nil
	}
	var anns []Annotation
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, annPrefix)
		if !ok {
			continue
		}
		verb, arg, _ := strings.Cut(rest, " ")
		anns = append(anns, Annotation{
			Verb: strings.TrimSpace(verb),
			Arg:  strings.TrimSpace(arg),
			Pos:  c.Pos(),
		})
	}
	return anns
}

// --- shared AST helpers used by several analyzers ---

// calleeName resolves a call expression to "pkg.Func" for package-level
// functions of an imported package (e.g. "fmt.Println", "os.Exit"),
// using type information when available and import-name syntax
// otherwise. It returns "" for anything else (methods, locals).
func calleeName(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj := pkg.ObjectOf(id); obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return ""
		}
		return pn.Imported().Path() + "." + sel.Sel.Name
	}
	// Syntactic fallback: resolve id against the file's imports.
	return id.Name + "." + sel.Sel.Name
}

// enclosingFuncs pairs each node of interest with its nearest enclosing
// function (declaration or literal) by a single walk.
type funcStack struct {
	stack []ast.Node // *ast.FuncDecl or *ast.FuncLit
}

func (fs *funcStack) push(n ast.Node) { fs.stack = append(fs.stack, n) }
func (fs *funcStack) pop()            { fs.stack = fs.stack[:len(fs.stack)-1] }

// top returns the innermost enclosing function node, or nil.
func (fs *funcStack) top() ast.Node {
	if len(fs.stack) == 0 {
		return nil
	}
	return fs.stack[len(fs.stack)-1]
}

// topDecl returns the outermost enclosing declaration, or nil.
func (fs *funcStack) topDecl() *ast.FuncDecl {
	if len(fs.stack) == 0 {
		return nil
	}
	d, _ := fs.stack[0].(*ast.FuncDecl)
	return d
}

// funcType returns the signature syntax of a function node.
func funcType(n ast.Node) *ast.FuncType {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		return fn.Type
	case *ast.FuncLit:
		return fn.Type
	}
	return nil
}

// walkFuncs traverses f, calling visit for every node with the current
// function stack maintained.
func walkFuncs(f *ast.File, visit func(n ast.Node, fs *funcStack) bool) {
	fs := &funcStack{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if !visit(n, fs) {
				return false
			}
			fs.push(n)
			defer fs.pop()
			// Inspect children within the pushed frame.
			for _, c := range childrenOf(n) {
				ast.Inspect(c, walk)
			}
			return false
		default:
			return visit(n, fs)
		}
	}
	ast.Inspect(f, walk)
}

// childrenOf lists the walkable children of a function node.
func childrenOf(n ast.Node) []ast.Node {
	var out []ast.Node
	switch fn := n.(type) {
	case *ast.FuncDecl:
		if fn.Body != nil {
			out = append(out, fn.Body)
		}
	case *ast.FuncLit:
		if fn.Body != nil {
			out = append(out, fn.Body)
		}
	}
	return out
}

// returnsError reports whether the function signature includes an error
// result (syntactically: a result whose type is the identifier "error").
func returnsError(ft *ast.FuncType) bool {
	if ft == nil || ft.Results == nil {
		return false
	}
	for _, r := range ft.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}

// declaredOutside reports whether the object bound to id was declared
// outside the [from, to] source interval (i.e. it is free with respect
// to that region). Falls back to false when resolution fails.
func declaredOutside(pkg *Package, id *ast.Ident, from, to token.Pos) bool {
	obj := pkg.ObjectOf(id)
	if obj == nil {
		return false
	}
	p := obj.Pos()
	return p != token.NoPos && (p < from || p > to)
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Concurrency enforces two local hygiene rules on goroutine launches
// and server construction, the invariants that keep the batch engine
// (Search's worker pool) and the HTTP front end race-free and unstallable as
// they grow:
//
//  1. A function that launches goroutines must also join them: a
//     WaitGroup Wait, a channel receive (including range and select),
//     or an errgroup-style Wait must appear in the same function.
//     Fire-and-forget goroutines leak past function return, outlive
//     the data they touch, and are unobservable under -race.
//  2. An http.Server composite literal must set ReadHeaderTimeout.
//     The zero value means a client can hold a connection (and its
//     serving goroutine) open forever before sending headers — a
//     slow-loris leak that no join discipline can see.
//
// The join rule is deliberately function-local; a launcher that hands
// ownership of the join to its caller documents that with a
// //lint:ignore concurrency suppression.
type Concurrency struct{}

// Name implements Analyzer.
func (Concurrency) Name() string { return "concurrency" }

// Doc implements Analyzer.
func (Concurrency) Doc() string {
	return "goroutines must join in their launching function; " +
		"http.Server literals must set ReadHeaderTimeout"
}

// Run implements Analyzer.
func (Concurrency) Run(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				diags = append(diags, checkFunc(pkg, fn)...)
			}
		}
		diags = append(diags, serverLiteralDiags(pkg, f)...)
	}
	return diags
}

// serverLiteralDiags flags net/http.Server composite literals that do
// not set ReadHeaderTimeout. Identification is type-based when type
// information resolved, with a syntactic http.Server fallback so the
// rule still fires in packages whose imports failed to load.
func serverLiteralDiags(pkg *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isHTTPServerLit(pkg, lit) {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "ReadHeaderTimeout" {
				return true
			}
		}
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(lit.Pos()),
			Rule: "concurrency",
			Message: "http.Server literal without ReadHeaderTimeout; " +
				"a header-less client holds its serving goroutine forever (slow loris)",
		})
		return true
	})
	return diags
}

// isHTTPServerLit reports whether the composite literal constructs a
// net/http.Server value.
func isHTTPServerLit(pkg *Package, lit *ast.CompositeLit) bool {
	if t := pkg.TypeOf(lit); t != nil {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			return obj.Name() == "Server" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
		}
	}
	sel, ok := lit.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Server" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "http"
}

// checkFunc applies the join rule to one function declaration.
func checkFunc(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var gos []*ast.GoStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
		return true
	})
	if len(gos) == 0 || hasJoin(pkg, fn, gos) {
		return nil
	}
	var diags []Diagnostic
	for _, g := range gos {
		diags = append(diags, Diagnostic{
			Pos:  pkg.Fset.Position(g.Pos()),
			Rule: "concurrency",
			Message: "goroutine has no join in " + fn.Name.Name +
				" (no WaitGroup Wait, channel receive, or select); " +
				"join it or document ownership with a suppression",
		})
	}
	return diags
}

// hasJoin scans fn for join evidence, excluding the bodies of the
// go-launched closures themselves (a receive inside the goroutine does
// not join it for the launcher).
func hasJoin(pkg *Package, fn *ast.FuncDecl, gos []*ast.GoStmt) bool {
	launched := map[*ast.FuncLit]bool{}
	for _, g := range gos {
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			launched[lit] = true
		}
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if launched[n] {
				return false
			}
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pkg.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		}
		return !found
	})
	return found
}

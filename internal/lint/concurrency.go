package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Concurrency enforces three local hygiene rules on goroutine launches
// and server construction, the invariants that keep the batch engine
// (LookupBatch) and the HTTP front end race-free and unstallable as
// they grow:
//
//  1. A function that launches goroutines must also join them: a
//     WaitGroup Wait, a channel receive (including range and select),
//     or an errgroup-style Wait must appear in the same function.
//     Fire-and-forget goroutines leak past function return, outlive
//     the data they touch, and are unobservable under -race.
//  2. A goroutine closure must not capture the surrounding loop
//     variable by reference; pass it as an argument. (Go ≥ 1.22 makes
//     the capture per-iteration, but the explicit parameter keeps the
//     dataflow reviewable and the code safe to backport.)
//  3. An http.Server composite literal must set ReadHeaderTimeout.
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
	return "goroutines must join in their launching function and not capture loop variables; " +
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

// checkFunc applies both goroutine rules to one function declaration.
func checkFunc(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	var gos []*ast.GoStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
		return true
	})
	if len(gos) == 0 {
		return nil
	}
	var diags []Diagnostic
	if !hasJoin(pkg, fn, gos) {
		for _, g := range gos {
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(g.Pos()),
				Rule: "concurrency",
				Message: "goroutine has no join in " + fn.Name.Name +
					" (no WaitGroup Wait, channel receive, or select); " +
					"join it or document ownership with a suppression",
			})
		}
	}
	diags = append(diags, loopCaptureDiags(pkg, fn, gos)...)
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

// loopCaptureDiags flags go-launched closures that reference the
// enclosing for/range loop's iteration variables instead of taking them
// as arguments.
func loopCaptureDiags(pkg *Package, fn *ast.FuncDecl, gos []*ast.GoStmt) []Diagnostic {
	var diags []Diagnostic
	// Map every go statement to the loop variables of the loops that
	// enclose it, by walking with an active-loop-variable stack.
	type loopFrame struct{ vars []*ast.Ident }
	var stack []loopFrame
	var walk func(n ast.Node) bool
	goSet := map[*ast.GoStmt]bool{}
	for _, g := range gos {
		goSet[g] = true
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			var vars []*ast.Ident
			if n.Tok == token.DEFINE {
				for _, e := range [...]ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						vars = append(vars, id)
					}
				}
			}
			stack = append(stack, loopFrame{vars: vars})
			ast.Inspect(n.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.ForStmt:
			var vars []*ast.Ident
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, e := range init.Lhs {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						vars = append(vars, id)
					}
				}
			}
			stack = append(stack, loopFrame{vars: vars})
			ast.Inspect(n.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.GoStmt:
			if !goSet[n] {
				return true
			}
			lit, ok := n.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			for _, frame := range stack {
				for _, lv := range frame.vars {
					if capturesVar(pkg, lit, lv) {
						diags = append(diags, Diagnostic{
							Pos:  pkg.Fset.Position(n.Pos()),
							Rule: "concurrency",
							Message: "goroutine closure captures loop variable " +
								lv.Name + "; pass it as an argument instead",
						})
					}
				}
			}
			// Arguments to the call are evaluated at launch; still walk
			// the closure body for nested loops and goroutines.
			ast.Inspect(lit.Body, walk)
			return false
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
	return diags
}

// capturesVar reports whether the closure body references the loop
// variable declared by decl. With type information the check matches
// objects; without it, it falls back to name matching.
func capturesVar(pkg *Package, lit *ast.FuncLit, decl *ast.Ident) bool {
	declObj := pkg.ObjectOf(decl)
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		if declObj != nil {
			if pkg.ObjectOf(id) == declObj {
				captured = true
			}
		} else if id.Name == decl.Name && id.Pos() != decl.Pos() {
			captured = true
		}
		return !captured
	})
	return captured
}
